package experiment

import (
	"context"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
)

// ComparisonResult holds one "changed vs. original" experiment: the run
// sweep, whose Rows[0] is the original treatment and Rows[1] the changed
// one. Figures 3-5 plot the Performance Ratios of its cells.
type ComparisonResult struct{ *SweepResult }

func newComparison(rs *SweepResult) *ComparisonResult { return &ComparisonResult{rs} }

// SpecRQ1a enumerates RQ1.a / Figure 3: full vs. joint-dealiased seeds.
func (e *Env) SpecRQ1a(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq1a, protos, gens, budget).Spec()
}

// RunRQ1aCtx answers RQ1.a (Figure 3): how does dealiasing the seed dataset
// change TGA hits, ASes, and generated aliases? Original = full collected
// dataset; changed = joint (online+offline) dealiased dataset.
func (e *Env) RunRQ1aCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return run(ctx, e, e.sweep(rq1a, protos, gens, budget), newComparison)
}

// SpecRQ1b enumerates RQ1.b / Figure 4: joint-dealiased vs. All Active.
func (e *Env) SpecRQ1b(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq1b, protos, gens, budget).Spec()
}

// RunRQ1bCtx answers RQ1.b (Figure 4): does restricting seeds to responsive
// addresses help? Original = joint-dealiased dataset (active+inactive);
// changed = All Active.
func (e *Env) RunRQ1bCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return run(ctx, e, e.sweep(rq1b, protos, gens, budget), newComparison)
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

// Render prints Table 4: a line per generator, a column per treatment.
func (r *Table4Result) Render() string {
	return matrix("Table 4: Aliased addresses discovered per seed-dealiasing treatment (ICMP)", "Model",
		r.Gens, r.labels(), func(gi, ri int) int { return metricAliases(r.At(ri, 0, gi)) })
}

// Render prints the comparison's ratio rows per protocol.
func (r *ComparisonResult) Render() string {
	out := ""
	for pi, p := range r.Protos {
		t := &Table{
			Title:  r.Name + " (" + p.String() + "): " + r.Rows[1].Label + " vs. " + r.Rows[0].Label,
			Header: []string{"Generator", "Hits PR", "ASes PR", "Aliases PR", "Hits(orig)", "Hits(chg)", "ASes(orig)", "ASes(chg)"},
		}
		for gi, g := range r.Gens {
			orig, chg := r.At(0, pi, gi), r.At(1, pi, gi)
			t.AddRow(g, fmtRatio(r.ratio(metricHits, pi, gi)), fmtRatio(r.ratio(metricASes, pi, gi)), fmtRatio(r.ratio(metricAliases, pi, gi)),
				FmtInt(metricHits(orig)), FmtInt(metricHits(chg)), FmtInt(metricASes(orig)), FmtInt(metricASes(chg)))
		}
		out += t.String() + "\n"
	}
	return out
}
