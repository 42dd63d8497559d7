package experiment

import (
	"context"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// ComparisonResult holds one "changed vs. original" experiment: the raw
// outcomes per protocol and generator under both treatments, plus the
// Performance Ratio rows that Figures 3-5 plot.
type ComparisonResult struct {
	Name     string
	Original string
	Changed  string
	Budget   int
	// Raw[p][gen] = [original, changed] outcomes.
	Raw map[proto.Protocol]map[string][2]metrics.Outcome
	// Ratios[p] lists a RatioRow per generator.
	Ratios map[proto.Protocol][]metrics.RatioRow
}

// compare executes a comparison spec through the grid engine and folds
// the cell outcomes into Performance Ratio rows. Cells shared with other
// specs (or already checkpointed) are not re-run; progress events carry
// the spec's unique-cell count.
func (e *Env) compare(ctx context.Context, spec grid.Spec, origName, chgName string,
	orig, chg func(p proto.Protocol) grid.Treatment,
	protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {

	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	rs, err := e.Grid().Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &ComparisonResult{
		Name: spec.Name, Original: origName, Changed: chgName, Budget: budget,
		Raw:    make(map[proto.Protocol]map[string][2]metrics.Outcome),
		Ratios: make(map[proto.Protocol][]metrics.RatioRow),
	}
	for _, p := range protos {
		res.Raw[p] = make(map[string][2]metrics.Outcome)
		for _, g := range gens {
			ro := rs.Of(e.cell(g, orig(p), p, budget, 0)).Outcome
			rc := rs.Of(e.cell(g, chg(p), p, budget, 0)).Outcome
			res.Raw[p][g] = [2]metrics.Outcome{ro, rc}
			res.Ratios[p] = append(res.Ratios[p], metrics.RatioRow{
				Generator: g,
				Hits:      metrics.PerformanceRatio(float64(rc.Hits), float64(ro.Hits)),
				ASes:      metrics.PerformanceRatio(float64(rc.ASes), float64(ro.ASes)),
				Aliases:   metrics.PerformanceRatio(float64(rc.Aliases), float64(ro.Aliases)),
			})
		}
	}
	return res, nil
}

// RunRQ1aCtx answers RQ1.a (Figure 3): how does dealiasing the seed dataset
// change TGA hits, ASes, and generated aliases? Original = full collected
// dataset; changed = joint (online+offline) dealiased dataset.
func (e *Env) RunRQ1aCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return e.compare(ctx, e.SpecRQ1a(protos, gens, budget), "Full", "Dealiased",
		treatFull, treatJoint, protos, gens, budget)
}

// Table4Result holds Table 4: aliased addresses discovered by each TGA on
// an ICMP run, under every seed dealiasing treatment (the paper's four
// plus the cool-down extension).
type Table4Result struct {
	Budget int
	Gens   []string
	// Aliases[gen][i] for i indexing alias.Modes (none, offline, online,
	// joint, cooldown).
	Aliases map[string][]int
}

// RunTable4Ctx reproduces Table 4.
func (e *Env) RunTable4Ctx(ctx context.Context, gens []string, budget int) (*Table4Result, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	rs, err := e.Grid().Run(ctx, e.SpecTable4(gens, budget))
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Budget: budget, Gens: gens, Aliases: make(map[string][]int, len(gens))}
	for _, g := range gens {
		row := make([]int, len(alias.Modes))
		for i, m := range alias.Modes {
			row[i] = rs.Of(e.cell(g, TreatmentDealiased(m), proto.ICMP, budget, 0)).Outcome.Aliases
		}
		res.Aliases[g] = row
	}
	return res, nil
}

// table4ModeLabel names a dealiasing treatment's column in Table 4's
// layout ("D_All" for the untreated dataset).
func table4ModeLabel(m alias.Mode) string {
	if m == alias.ModeNone {
		return "D_All"
	}
	return "D_" + m.String()
}

// Render prints Table 4.
func (r *Table4Result) Render() string {
	header := make([]string, 0, len(alias.Modes)+1)
	header = append(header, "Model")
	for _, m := range alias.Modes {
		header = append(header, table4ModeLabel(m))
	}
	t := &Table{
		Title:  "Table 4: Aliased addresses discovered per seed-dealiasing treatment (ICMP)",
		Header: header,
	}
	for _, g := range r.Gens {
		cells := make([]string, 0, len(alias.Modes)+1)
		cells = append(cells, g)
		for _, v := range r.Aliases[g] {
			cells = append(cells, fmtInt(v))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// RunRQ1bCtx answers RQ1.b (Figure 4): does restricting seeds to responsive
// addresses help? Original = joint-dealiased dataset (active+inactive);
// changed = All Active.
func (e *Env) RunRQ1bCtx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return e.compare(ctx, e.SpecRQ1b(protos, gens, budget), "Dealiased", "All Active",
		treatJoint, treatAllActive, protos, gens, budget)
}

// Render prints the comparison's ratio rows per protocol.
func (r *ComparisonResult) Render() string {
	out := ""
	for _, p := range proto.All {
		rows, ok := r.Ratios[p]
		if !ok {
			continue
		}
		t := &Table{
			Title:  r.Name + " (" + p.String() + "): " + r.Changed + " vs. " + r.Original,
			Header: []string{"Generator", "Hits PR", "ASes PR", "Aliases PR", "Hits(orig)", "Hits(chg)", "ASes(orig)", "ASes(chg)"},
		}
		for _, row := range rows {
			raw := r.Raw[p][row.Generator]
			t.AddRow(row.Generator, fmtRatio(row.Hits), fmtRatio(row.ASes), fmtRatio(row.Aliases),
				fmtInt(raw[0].Hits), fmtInt(raw[1].Hits), fmtInt(raw[0].ASes), fmtInt(raw[1].ASes))
		}
		out += t.String() + "\n"
	}
	return out
}
