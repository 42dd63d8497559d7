package experiment

import (
	"context"
	"slices"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// ComparisonResult holds one "changed vs. original" experiment: the run
// sweep, whose Rows[0] is the original treatment and Rows[1] the changed
// one, plus the Performance Ratio rows that Figures 3-5 plot.
type ComparisonResult struct {
	*SweepResult
	// Ratios[p] lists a RatioRow per generator.
	Ratios map[proto.Protocol][]metrics.RatioRow
}

// foldComparison reduces a comparison's cell outcomes to Performance Ratio
// rows.
func foldComparison(rs *SweepResult) *ComparisonResult {
	res := &ComparisonResult{SweepResult: rs, Ratios: make(map[proto.Protocol][]metrics.RatioRow)}
	for pi, p := range rs.Protos {
		for gi, g := range rs.Gens {
			ro, rc := rs.At(0, pi, gi).Outcome, rs.At(1, pi, gi).Outcome
			res.Ratios[p] = append(res.Ratios[p], metrics.RatioRow{
				Generator: g,
				Hits:      metrics.PerformanceRatio(float64(rc.Hits), float64(ro.Hits)),
				ASes:      metrics.PerformanceRatio(float64(rc.ASes), float64(ro.ASes)),
				Aliases:   metrics.PerformanceRatio(float64(rc.Aliases), float64(ro.Aliases)),
			})
		}
	}
	return res
}

// SpecRQ1a enumerates RQ1.a / Figure 3: full vs. joint-dealiased seeds.
func (e *Env) SpecRQ1a(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq1a, protos, gens, budget).Spec()
}

// RunRQ1aCtx answers RQ1.a (Figure 3): how does dealiasing the seed dataset
// change TGA hits, ASes, and generated aliases? Original = full collected
// dataset; changed = joint (online+offline) dealiased dataset.
func (e *Env) RunRQ1aCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return run(ctx, e, e.sweep(rq1a, protos, gens, budget), foldComparison)
}

// SpecRQ1b enumerates RQ1.b / Figure 4: joint-dealiased vs. All Active.
func (e *Env) SpecRQ1b(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq1b, protos, gens, budget).Spec()
}

// RunRQ1bCtx answers RQ1.b (Figure 4): does restricting seeds to responsive
// addresses help? Original = joint-dealiased dataset (active+inactive);
// changed = All Active.
func (e *Env) RunRQ1bCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return run(ctx, e, e.sweep(rq1b, protos, gens, budget), foldComparison)
}

// Table4Result holds Table 4: aliased addresses discovered by each TGA on
// an ICMP run, under every seed dealiasing treatment (the sweep's rows: the
// paper's four plus the cool-down extension).
type Table4Result struct{ *SweepResult }

// SpecTable4 enumerates Table 4: every generator on every seed-dealiasing
// treatment, ICMP.
func (e *Env) SpecTable4(gens []string, budget int) grid.Spec {
	return e.sweep(table4, icmpOnly, gens, budget).Spec()
}

// RunTable4Ctx reproduces Table 4.
func (e *Env) RunTable4Ctx(ctx context.Context, gens []string, budget int) (*Table4Result, error) {
	return run(ctx, e, e.sweep(table4, icmpOnly, gens, budget), func(rs *SweepResult) *Table4Result { return &Table4Result{rs} })
}

// Aliases returns the gi-th generator's alias count per treatment row.
func (r *Table4Result) Aliases(gi int) []int {
	row := make([]int, len(r.Rows))
	for i := range r.Rows {
		row[i] = r.At(i, 0, gi).Outcome.Aliases
	}
	return row
}

// Render prints Table 4.
func (r *Table4Result) Render() string {
	header := []string{"Model"}
	for _, row := range r.Rows {
		header = append(header, row.Label)
	}
	t := &Table{
		Title:  "Table 4: Aliased addresses discovered per seed-dealiasing treatment (ICMP)",
		Header: header,
	}
	for gi, g := range r.Gens {
		cells := []string{g}
		for _, v := range r.Aliases(gi) {
			cells = append(cells, FmtInt(v))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// Render prints the comparison's ratio rows per protocol.
func (r *ComparisonResult) Render() string {
	out := ""
	for _, p := range proto.All {
		pi := slices.Index(r.Protos, p)
		if pi < 0 {
			continue
		}
		t := &Table{
			Title:  r.Name + " (" + p.String() + "): " + r.Rows[1].Label + " vs. " + r.Rows[0].Label,
			Header: []string{"Generator", "Hits PR", "ASes PR", "Aliases PR", "Hits(orig)", "Hits(chg)", "ASes(orig)", "ASes(chg)"},
		}
		for gi, row := range r.Ratios[p] {
			orig, chg := r.At(0, pi, gi).Outcome, r.At(1, pi, gi).Outcome
			t.AddRow(row.Generator, fmtRatio(row.Hits), fmtRatio(row.ASes), fmtRatio(row.Aliases),
				FmtInt(orig.Hits), FmtInt(chg.Hits), FmtInt(orig.ASes), FmtInt(chg.ASes))
		}
		out += t.String() + "\n"
	}
	return out
}
