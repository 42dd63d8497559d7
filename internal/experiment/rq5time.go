package experiment

import (
	"context"
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/longitudinal"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/world"
)

// DefaultRQ5Epochs is how many consecutive epochs the RQ5 daemon runs.
const DefaultRQ5Epochs = 6

// RQ5TimeResult holds "RQ5: metrics over time" — what happens to a
// published hitlist's quality metrics as the Internet churns under it.
// The paper's snapshot tables measure one scan epoch; this table runs the
// longitudinal daemon over several and reports seed decay, TGA hit
// persistence, and alias-set drift per epoch.
//
// Every field is a pure function of the environment configuration: the
// reports are normalized (no wall-clock durations, no store generation
// numbers), so a run resumed from checkpoints renders byte-identically.
type RQ5TimeResult struct {
	Gens       []string
	CorpusSize int
	Epochs     []longitudinal.EpochReport
	// AliasAdded/AliasRemoved[i] count /96s entering and leaving the
	// observed alias set at transition i-1 → i (index 0 is always zero):
	// the alias-set drift a point-in-time offline list cannot track.
	AliasAdded, AliasRemoved []int
}

// rq5Time reproduces the RQ5 metrics-over-time table from the run cohort
// sweep: it drives a longitudinal daemon over its own copy of the world
// for several epochs (zero means DefaultRQ5Epochs). The daemon scans a
// private world+scanner pair built from the same EnvConfig —
// byte-identical addresses and truth, but advancing its epoch clock never
// perturbs the shared Env other sections scan through. Daemon epoch cells
// checkpoint into the same grid store under a "|rq5time"-suffixed
// fingerprint, so -resume covers this table too.
func (e *Env) rq5Time(ctx context.Context, cohortRuns *SweepResult, epochs int) (*RQ5TimeResult, error) {
	if epochs <= 0 {
		epochs = DefaultRQ5Epochs
	}
	gens := cohortRuns.Gens
	cohorts := make([]longitudinal.Cohort, 0, len(gens))
	for gi, g := range gens {
		cohorts = append(cohorts, longitudinal.Cohort{Name: g, Addrs: cohortRuns.At(0, 0, gi).Hits})
	}

	c := e.Cfg
	w := world.New(world.Config{Seed: c.WorldSeed, NumASes: c.NumASes, LossRate: c.LossRate})
	sc := scanner.New(w.Link(), scanner.WithSecret(c.ScanSecret), scanner.WithTelemetry(e.Tele.Registry()))
	d, err := longitudinal.New(longitudinal.Config{
		World:           w,
		Prober:          sc,
		Corpus:          e.Full.SortedSlice(),
		Cohorts:         cohorts,
		Proto:           proto.ICMP,
		Epochs:          epochs,
		Fingerprint:     e.Fingerprint() + "|rq5time",
		Store:           e.Cfg.GridStore,
		AliasedPrefixes: e.Offline.Prefixes(),
		Telemetry:       e.Tele,
	})
	if err != nil {
		return nil, err
	}
	reps, err := d.Run(ctx)
	if err != nil {
		return nil, err
	}

	res := &RQ5TimeResult{Gens: gens, CorpusSize: e.Full.Len(), Epochs: reps}
	for i := range res.Epochs {
		res.Epochs[i].Duration = 0
		res.Epochs[i].Generation = 0
	}
	res.AliasAdded = make([]int, len(reps))
	res.AliasRemoved = make([]int, len(reps))
	for i := 1; i < len(reps); i++ {
		prev := make(map[ipaddr.Prefix]bool, len(reps[i-1].AliasPrefixes))
		for _, p := range reps[i-1].AliasPrefixes {
			prev[p] = true
		}
		cur := make(map[ipaddr.Prefix]bool, len(reps[i].AliasPrefixes))
		for _, p := range reps[i].AliasPrefixes {
			cur[p] = true
			if !prev[p] {
				res.AliasAdded[i]++
			}
		}
		for _, p := range reps[i-1].AliasPrefixes {
			if !cur[p] {
				res.AliasRemoved[i]++
			}
		}
	}
	return res, nil
}

// Render prints the two RQ5 tables: the per-epoch decay/drift summary and
// the per-generator hit persistence matrix.
func (r *RQ5TimeResult) Render() string {
	t := &Table{
		Title: "RQ5 (metrics over time): seed decay, staleness, alias drift — ICMP",
		Header: []string{"Epoch", "Probed", "Saved", "Hits", "Alive",
			"Seeds Alive", "Seeds %", "Stale", "Alias /96s", "+Drift", "-Drift"},
	}
	for i, rep := range r.Epochs {
		t.AddRow(
			FmtInt(rep.Epoch), FmtInt(rep.Probed), FmtInt(rep.Saved),
			FmtInt(rep.Hits), FmtInt(rep.Alive),
			FmtInt(rep.AliveSeeds), fmtPct(float64(rep.AliveSeeds)/float64(r.CorpusSize)),
			FmtInt(rep.ConfirmedStale), FmtInt(len(rep.AliasPrefixes)),
			FmtInt(r.AliasAdded[i]), FmtInt(r.AliasRemoved[i]))
	}
	out := t.String() + "\n"

	p := &Table{
		Title:  "RQ5: TGA hit persistence (cohort members believed alive)",
		Header: append([]string{"Epoch"}, r.Gens...),
	}
	for _, rep := range r.Epochs {
		row := []string{FmtInt(rep.Epoch)}
		for _, g := range r.Gens {
			cell := "-"
			for _, cs := range rep.Cohorts {
				if cs.Name == g && cs.Total > 0 {
					cell = fmt.Sprintf("%s (%s)", FmtInt(cs.Alive), fmtPct(float64(cs.Alive)/float64(cs.Total)))
					break
				}
			}
			row = append(row, cell)
		}
		p.AddRow(row...)
	}
	return out + p.String()
}
