package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seedscan/internal/ipaddr"
)

// worldSeed fixes the simulated Internet for every workload and seed. The
// run's -seed draws the measurement campaign on top of it — which seeds
// are collected, the scan order and cookies, the fault pattern, the query
// mix — but not the world itself: across world seeds the same
// configuration's wall time moved ±10–20% (measured on repro_icmp,
// seeds 1–6), which no bound could separate from a regression.
const worldSeed = 42

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Size     sizing
	// OutDir receives the trace file and holds scratch stores.
	OutDir string
	// SkipExpected leaves expected.json out of the checks (it is being
	// re-recorded).
	SkipExpected bool
}

// passSample is one pass of a workload's unit of work.
type passSample struct {
	WallNs     int64
	Work       int64 // work units done: see the workload's doc comment
	AllocBytes uint64
	CPUNs      int64
}

// measurement is what a workload hands back from an untraced run.
type measurement struct {
	Passes    []passSample
	Attempted int64
	Failed    int64
	// Digests identify the program's outputs (per grid cell, per scan
	// round, ...). They are compared between passes by the workload and
	// against expected.json by the harness.
	Digests map[string]string
	// Notes explain failures and anything the reader of a run should know.
	Notes []string
}

// workload is one of the five named traffic mixes.
type workload interface {
	// Setup builds everything that precedes the measured phase. The
	// harness calls it several times and reports the median, with a Close
	// between any two calls.
	Setup() error
	// Measure runs passes until the deadline (at least one).
	Measure(deadline time.Time) (*measurement, error)
	// Trace runs the workload through the benchmark's wrappers and
	// returns per-layer values by metric name, plus the traced pass's
	// wall time and work, and the same correctness accounting as Measure.
	Trace(tr *Tracer) (layers map[string]float64, m *measurement, err error)
	// Close releases everything Setup built, memory included.
	Close()
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.Workload {
	case "repro_icmp":
		return newReproWorkload(cfg)
	case "scan_flood":
		return &scanWorkload{cfg: cfg}, nil
	case "scan_sharded":
		return &scanWorkload{cfg: cfg, sharded: true}, nil
	case "serve_read":
		return &serveWorkload{cfg: cfg}, nil
	case "daemon_serve":
		return &daemonWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames, ", "))
}

// workloadNames is the run order of the suite.
var workloadNames = []string{"repro_icmp", "scan_flood", "scan_sharded", "serve_read", "daemon_serve"}

// envInfo records where a run happened.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() envInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envInfo{
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// RunRecord is everything one invocation measured. The last line of
// standard output carries the contract's four keys; the full record goes
// to -detail for the suite runner.
type RunRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`

	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// Samples is how many passes (setup repetitions for setup_s) stand
	// behind each median.
	Samples map[string]int `json:"samples"`
	// CalibBeforeNs / CalibAfterNs time the same fixed spin before and
	// after the measured phase: a large difference means the machine's
	// speed changed under the run.
	CalibBeforeNs int64 `json:"calib_before_ns"`
	CalibAfterNs  int64 `json:"calib_after_ns"`
	// WallS is the invocation's own wall time, set-up included.
	WallS     float64           `json:"run_wall_s"`
	Digests   map[string]string `json:"digests,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Waterfall string            `json:"waterfall,omitempty"`
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed arithmetic spin. It touches no memory, so it
// reads the CPU's current speed and contention, nothing else.
func calibrate() int64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return int64(time.Since(start))
}

// calibDrift is the relative difference of two calibration readings.
func calibDrift(before, after int64) float64 {
	if before <= 0 || after <= 0 {
		return 0
	}
	lo, hi := float64(before), float64(after)
	if lo > hi {
		lo, hi = hi, lo
	}
	return (hi - lo) / lo
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// passMeter brackets one pass with the process counters.
type passMeter struct {
	start time.Time
	cpu   int64
	alloc uint64
}

// beginPass collects the previous pass's garbage first, outside the
// timing, so that every pass starts from the same heap — as a user's run,
// one per process, does — and peak resident memory is one pass's
// footprint, not a sum over however many passes fitted.
func beginPass() passMeter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return passMeter{start: time.Now(), cpu: cpuNow(), alloc: ms.TotalAlloc}
}

func (p passMeter) end(work int64) passSample {
	wall := time.Since(p.start)
	cpu := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return passSample{WallNs: int64(wall), Work: work, AllocBytes: ms.TotalAlloc - p.alloc, CPUNs: cpu - p.cpu}
}

// runOne executes one invocation in this process.
func runOne(cfg runConfig) (*RunRecord, error) {
	began := time.Now()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	rec := &RunRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: currentEnv(), Samples: make(map[string]int),
	}

	// A set-up of a few milliseconds (repro_icmp's: the world is lazy)
	// needs more than three samples for a steady median, so repetitions
	// go on until SetupMinTime has been spent on them, within reason.
	var setups []float64
	var spent time.Duration
	for i := 0; i < cfg.Size.SetupReps || (spent < cfg.Size.SetupMinTime && i < 8*cfg.Size.SetupReps); i++ {
		// Every repetition starts from a collected heap that the previous
		// one's state has left: a user's process sets up once, so neither
		// may two set-ups be resident together (peak_rss_mb) nor one's
		// garbage decide when the next one's collections run.
		w.Close()
		runtime.GC()
		start := time.Now()
		if err := w.Setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.Workload, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}

	runtime.GC()
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	rec.CalibBeforeNs = calibrate()

	values := make(map[string]float64)
	var m *measurement
	if cfg.Trace {
		tr := newTracer(fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed))
		var layers map[string]float64
		layers, m, err = w.Trace(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", cfg.Workload, err)
		}
		for k, v := range layers {
			values[k] = v
		}
		var gcAfter runtime.MemStats
		runtime.ReadMemStats(&gcAfter)
		values["gc.cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
		values["gc.pause_total_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
		rows := tr.waterfall()
		tr.mu.Lock()
		values["trace.spans"] = float64(len(tr.spans))
		tr.mu.Unlock()
		var walls, cpu []float64
		for _, p := range m.Passes {
			walls = append(walls, float64(p.WallNs)/1e9)
			cpu = append(cpu, float64(p.CPUNs)/1e9)
		}
		// One traced pass, held against the untraced median pass, is the
		// tracing overhead.
		values["trace.wall_s"] = median(walls)
		values["proc.cpu_s"] = median(cpu)
		rec.Waterfall = renderWaterfall(rows, tr.rootNs())
		if err := tr.writeJSONL(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".jsonl")); err != nil {
			return nil, err
		}
		rec.Metrics, err = fillMetrics(perLayer, values)
	} else {
		deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
		m, err = w.Measure(deadline)
		if err != nil {
			return nil, fmt.Errorf("%s: measured run: %w", cfg.Workload, err)
		}
		if len(m.Passes) == 0 {
			return nil, fmt.Errorf("%s: no pass completed", cfg.Workload)
		}
		var wall, rate, alloc []float64
		for _, p := range m.Passes {
			s := float64(p.WallNs) / 1e9
			wall = append(wall, s)
			rate = append(rate, float64(p.Work)/s)
			alloc = append(alloc, float64(p.AllocBytes)/1e6)
		}
		values["setup_s"] = median(setups)
		values["wall_s"] = median(wall)
		values["work_per_s"] = median(rate)
		values["alloc_mb"] = median(alloc)
		values["peak_rss_mb"] = peakRSSMB()
		rec.Samples["setup_s"] = len(setups)
		for _, name := range []string{"wall_s", "work_per_s", "alloc_mb"} {
			rec.Samples[name] = len(m.Passes)
		}
		rec.Metrics, err = fillMetrics(endToEnd, values)
	}
	if err != nil {
		return nil, err
	}
	rec.CalibAfterNs = calibrate()

	rec.Attempted, rec.Failed = m.Attempted, m.Failed
	rec.Digests, rec.Notes = m.Digests, m.Notes
	if miss := checkExpected(cfg, m.Digests); len(miss) > 0 && !cfg.SkipExpected {
		rec.Failed += int64(len(miss))
		rec.Notes = append(rec.Notes, miss...)
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	rec.Correct = rec.Failed == 0
	rec.WallS = time.Since(began).Seconds()
	return rec, nil
}

// resultLine is the contract's last line of standard output.
func (r *RunRecord) resultLine() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// digestOf folds an ordered list of strings into one short digest.
func digestOf(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// setDigest identifies a collection of addresses whatever order they
// arrive in: their count and the sum of a per-address hash.
func setDigest(addrs []ipaddr.Addr) string {
	mix := func(x uint64) uint64 { // splitmix64's finalizer
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		return x ^ x>>31
	}
	var sum uint64
	for _, a := range addrs {
		sum += mix(a.Hi() ^ mix(a.Lo()))
	}
	return fmt.Sprintf("%d:%016x", len(addrs), sum)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
