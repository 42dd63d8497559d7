package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// calibLimit is the noise guard: a run whose two calibration spins differ
// by more than this is run again.
const calibLimit = 0.10

// maxReruns bounds how often the noise guard repeats one repetition.
const maxReruns = 2

// suiteReps is how many untraced runs of each workload the suite makes.
const suiteReps = 3

type suiteConfig struct {
	Seed    uint64
	Seconds float64
	OutDir  string
	Out     string
}

// Summary is one end-to-end metric over a workload's untraced runs.
type Summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
	// Values are the runs' values in run order; N passes stand behind
	// each of them.
	Values []float64 `json:"values"`
	N      int       `json:"samples_per_run"`
}

// WorkloadResult is everything the suite learned about one workload.
type WorkloadResult struct {
	// Runs are the untraced runs that count; Discarded the ones the noise
	// guard replaced (kept, so a re-run is reported, not hidden).
	Runs      []*RunRecord `json:"runs"`
	Discarded []*RunRecord `json:"discarded,omitempty"`
	Traced    *RunRecord   `json:"traced"`

	EndToEnd map[string]Summary `json:"end_to_end"`
	// FailedShare is failed operations over attempted ones, all untraced
	// runs together; a digest on which two runs of the suite disagree
	// (Mismatches) is one more failed operation.
	FailedShare float64  `json:"failed_share"`
	Mismatches  []string `json:"digest_mismatches,omitempty"`
	// TraceOverheadPct is (traced pass wall − untraced median pass wall) /
	// untraced median: what the wrappers and the serial replay cost.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
}

// SuiteResult is the file -compare reads.
type SuiteResult struct {
	Schema    string                     `json:"schema"`
	Env       envInfo                    `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

const suiteSchema = "seedscan-benchmark/v1"

// child runs one invocation in a fresh process, so that resident memory,
// GC state and pool warmth never carry from one run into the next.
func child(self string, cfg suiteConfig, name string, traced bool, tag string) (*RunRecord, error) {
	detail := filepath.Join(cfg.OutDir, fmt.Sprintf("run-%s-%s.json", name, tag))
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", t, "-detail", detail, "-out-dir", cfg.OutDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, t, err)
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	rec := new(RunRecord)
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, err
	}
	return rec, os.Remove(detail)
}

func runSuite(cfg suiteConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	env := currentEnv()
	fmt.Printf("seedscan benchmark — %s, kernel %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per run\n",
		env.GoVersion, env.Kernel, env.NProc, env.GOMAXPROCS, cfg.Seed, cfg.Seconds)
	fmt.Println("every run is its own process; load is generated inside it; HTTP crosses the host loopback, not a real link")
	fmt.Println()

	res := &SuiteResult{Schema: suiteSchema, Env: env, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Workloads: make(map[string]*WorkloadResult)}
	for _, name := range workloadNames {
		res.Workloads[name] = &WorkloadResult{}
	}

	// Interleaved, A B C D E, A B C D E, ...: slow drift of the machine
	// lands on every workload alike instead of on the last one.
	for rep := 1; rep <= suiteReps; rep++ {
		for _, name := range workloadNames {
			wr := res.Workloads[name]
			for try := 0; ; try++ {
				rec, err := child(self, cfg, name, false, fmt.Sprintf("rep%d-try%d", rep, try))
				if err != nil {
					return err
				}
				drift := calibDrift(rec.CalibBeforeNs, rec.CalibAfterNs)
				fmt.Printf("rep %d %-13s wall_s %.4f  work_per_s %.0f  failed %d/%d  calib %.1f→%.1f ms (drift %.1f%%)\n",
					rep, name, rec.Metrics["wall_s"].Value, rec.Metrics["work_per_s"].Value,
					rec.Failed, rec.Attempted, float64(rec.CalibBeforeNs)/1e6, float64(rec.CalibAfterNs)/1e6, 100*drift)
				if drift > calibLimit && try < maxReruns {
					fmt.Printf("      calibration drifted over %.0f%%: running this repetition again (%d of %d)\n",
						100*calibLimit, try+1, maxReruns)
					wr.Discarded = append(wr.Discarded, rec)
					continue
				}
				wr.Runs = append(wr.Runs, rec)
				break
			}
		}
	}
	for _, name := range workloadNames {
		rec, err := child(self, cfg, name, true, "traced")
		if err != nil {
			return err
		}
		res.Workloads[name].Traced = rec
	}
	for _, name := range workloadNames {
		summarize(res.Workloads[name])
	}

	printSuite(os.Stdout, res)
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s; traces are in %s/trace-<workload>.jsonl\n", cfg.Out, cfg.OutDir)

	for _, name := range workloadNames {
		if res.Workloads[name].FailedShare > 0 || !res.Workloads[name].Traced.Correct {
			return fmt.Errorf("%s: operations failed", name)
		}
	}
	return nil
}

// summarize fills a workload's end-to-end summaries from its runs.
func summarize(wr *WorkloadResult) {
	wr.EndToEnd = make(map[string]Summary)
	var attempted, failed int64
	for _, r := range wr.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	// Equal seeds give equal outputs. A run checks that between its own
	// passes; repro_icmp's runs are one pass each, so the runs are held
	// against each other here (on the keys both have: a slower daemon run
	// completes fewer epochs).
	runs := wr.Runs
	if wr.Traced != nil {
		runs = append(runs[:len(runs):len(runs)], wr.Traced)
	}
	for _, r := range runs[1:] {
		for _, k := range sortedKeys(r.Digests) {
			if first, ok := runs[0].Digests[k]; ok && first != r.Digests[k] {
				failed++
				wr.Mismatches = append(wr.Mismatches, fmt.Sprintf("%s: %s in one run, %s in the first", k, r.Digests[k], first))
			}
		}
	}
	if attempted > 0 {
		wr.FailedShare = float64(failed) / float64(attempted)
	}
	for _, d := range endToEnd {
		s := Summary{Unit: d.Unit}
		for _, r := range wr.Runs {
			s.Values = append(s.Values, r.Metrics[d.Name].Value)
			s.N = r.Samples[d.Name]
		}
		s.Median = median(s.Values)
		s.Min, s.Max = minMax(s.Values)
		wr.EndToEnd[d.Name] = s
	}
	if base := wr.EndToEnd["wall_s"].Median; base > 0 && wr.Traced != nil {
		wr.TraceOverheadPct = 100 * (wr.Traced.Metrics["trace.wall_s"].Value - base) / base
	}
}

// printRun prints one run's metrics by name, with units and sample counts.
func printRun(w io.Writer, rec *RunRecord) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s seed %d, %gs, trace %v — %s, nproc %d, GOMAXPROCS %d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.GoVersion, rec.Env.NProc, rec.Env.GOMAXPROCS)
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		if rec.Trace && m.Value == 0 {
			continue // a layer this workload does not exercise
		}
		n := ""
		if c, ok := rec.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (median of %d)", c)
		}
		fmt.Fprintf(w, "  %-32s %16.4f %-6s%s\n", d.Name, m.Value, m.Unit, n)
	}
	if rec.Waterfall != "" {
		fmt.Fprintf(w, "waterfall (self%% of the root span):\n%s", rec.Waterfall)
	}
	fmt.Fprintf(w, "  calib_ns before %d after %d; operations %d, failed %d; run took %.1fs\n",
		rec.CalibBeforeNs, rec.CalibAfterNs, rec.Attempted, rec.Failed, rec.WallS)
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// printSuite prints the end-to-end table, then each workload's layers.
func printSuite(w io.Writer, res *SuiteResult) {
	fmt.Fprintf(w, "\nEnd to end (tracing off; median [min .. max] of %d runs, each itself a median over its passes)\n", suiteReps)
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		fmt.Fprintf(w, "%s\n", name)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-14s %14.4f %-4s [%.4f .. %.4f]  %d samples/run  %s is better, bound %.0f%%\n",
				d.Name, s.Median, s.Unit, s.Min, s.Max, s.N, d.Better, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-14s %14.6f      (%d runs discarded by the noise guard)\n", "failed_share", wr.FailedShare, len(wr.Discarded))
		for _, miss := range wr.Mismatches {
			fmt.Fprintf(w, "  digest mismatch: %s\n", miss)
		}
		fmt.Fprintf(w, "  %-14s %14.1f %%    (traced pass %.4f s against the untraced median)\n",
			"trace_overhead", wr.TraceOverheadPct, wr.Traced.Metrics["trace.wall_s"].Value)
	}
	for _, name := range workloadNames {
		fmt.Fprintf(w, "\nPer layer, from the traced run — ")
		printRun(w, res.Workloads[name].Traced)
	}
}

// compareFiles prints, for every workload and end-to-end metric, both
// sides' medians and ranges and the change against the metric's bound.
// It reports whether b regressed against a.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	load := func(path string) (*SuiteResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		res := new(SuiteResult)
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Schema != suiteSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, suiteSchema)
		}
		return res, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s\nb = %s\n%d runs per workload on either side\n", pathA, pathB, suiteReps)
	fmt.Fprintln(w, "change is b's median against a's median, as a share of a's median; worse-than-bound is a regression")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict := judge(d, sa, sb)
			if verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-12s a %.4f [%.4f .. %.4f]  b %.4f [%.4f .. %.4f] %-4s  change %+.1f%% of a's %.4f (bound %.0f%%)  %s\n",
				d.Name, sa.Median, sa.Min, sa.Max, sb.Median, sb.Min, sb.Max, sa.Unit,
				100*change(sa.Median, sb.Median), sa.Median, 100*d.Bound, verdict)
		}
		fmt.Fprintf(w, "  %-12s a %.6f  b %.6f", "failed_share", wa.FailedShare, wb.FailedShare)
		if wb.FailedShare > wa.FailedShare {
			regressed = true
			fmt.Fprint(w, "  REGRESSION: more operations fail")
		}
		fmt.Fprintln(w)
	}
	return regressed, nil
}

func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// judge applies the benchmark's rule to one metric. The change is
// "unresolved" when either side's own spread (max − min over its median)
// exceeds the bound — unless every run of one side beats every run of the
// other, which no spread can explain away.
func judge(d metricDef, a, b Summary) string {
	worse := change(a.Median, b.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := func(s Summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Max - s.Min) / s.Median
	}
	separated := a.Max < b.Min || b.Max < a.Min
	if (spread(a) > d.Bound || spread(b) > d.Bound) && !separated {
		return "unresolved: a side's own spread exceeds the bound"
	}
	switch {
	case worse > d.Bound:
		return "REGRESSION"
	case worse < -d.Bound:
		return "improved"
	}
	return "within bound"
}
