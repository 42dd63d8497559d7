package experiment

import (
	"context"
	"fmt"
	"io"
	"slices"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
)

// Params are the axes every section sweeps, as cmd/experiments' -protos,
// -gens and -budget select them.
type Params struct {
	Protos []proto.Protocol
	Gens   []string
	Budget int
}

// quarter is the budget of the per-source runs and of Figure 7, which
// sweep twelve and five datasets where the other sections sweep one or two.
func (p Params) quarter() int { return p.Budget / 4 }

// Section is one selectable piece of the evaluation: a table or figure (or
// a few that print together) under its `-run` name.
type Section struct {
	Name string
	// OptIn sections run only when named, not under "all": heavy extras.
	OptIn bool
	// sweeps declares the grid cells the section needs; nil for sections
	// that run no generator. render folds their results, in declaration
	// order, into the blocks the section prints.
	sweeps func(e *Env, p Params) []Sweep
	render renderFunc
}

// Specs enumerates the cells the section would request, without scanning.
func (s Section) Specs(e *Env, p Params) []grid.Spec {
	var specs []grid.Spec
	if s.sweeps != nil {
		for _, sw := range s.sweeps(e, p) {
			specs = append(specs, sw.Spec())
		}
	}
	return specs
}

// Run executes the section's sweeps through the environment's engine —
// cells another section already ran are not re-run — and prints its
// tables to w.
func (s Section) Run(ctx context.Context, e *Env, p Params, w io.Writer) error {
	var rs []*SweepResult
	if s.sweeps != nil {
		for _, sw := range s.sweeps(e, p) {
			r, err := e.runSweep(ctx, sw)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
	}
	blocks, err := s.render(ctx, e, rs)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		fmt.Fprintln(w, b)
	}
	return nil
}

// The seed treatments the comparisons pair, under the names Figures 3-5
// print; RQ2's port-specific row is resolved per scanned protocol.
var (
	rowFull         = Row{Label: "Full", Treatment: TreatmentFull}
	rowDealiased    = Row{Label: "Dealiased", Treatment: TreatmentDealiased(alias.ModeJoint)}
	rowAllActive    = Row{Label: "All Active", Treatment: TreatmentAllActive}
	rowPortSpecific = Row{Label: "Port-Specific", Treatment: treatmentScannedPort}
	icmpOnly        = []proto.Protocol{proto.ICMP}
)

// rowsOf labels one treatment per key: an input per protocol, a dataset
// per seed source, a Table 4 column per dealiasing mode.
func rowsOf[K any](keys []K, label func(K) string, treatment func(K) grid.Treatment) []Row {
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{Label: label(k), Treatment: treatment(k)}
	}
	return rows
}

var portRows = rowsOf(proto.All[:], proto.Protocol.String, TreatmentPortActive)

// table4Label names a dealiasing treatment's column in Table 4's layout.
func table4Label(m alias.Mode) string {
	if m == alias.ModeNone {
		return "D_All"
	}
	return "D_" + m.String()
}

// The evaluation's sweeps: which labelled treatments each table or figure
// seeds its generators with, and how its cell list nests (comparisons put
// the original row first, the changed row second). Protocols, generators
// and budget are closed by Env.sweep. Rows that several sweeps share name
// the identical treatment, so their cells run once.
var (
	rq1a   = Sweep{Name: "RQ1.a / Figure 3", Rows: []Row{rowFull, rowDealiased}}
	rq1b   = Sweep{Name: "RQ1.b / Figure 4", Rows: []Row{rowDealiased, rowAllActive}}
	rq2    = Sweep{Name: "RQ2 / Figure 5", Rows: []Row{rowAllActive, rowPortSpecific}}
	rq4    = Sweep{Name: "RQ4", Rows: []Row{rowAllActive}}
	table4 = Sweep{Name: "Table 4", Rows: rowsOf(alias.Modes, table4Label, TreatmentDealiased)}
	// The per-source runs behind Tables 5, 6 and 13-15. Sources whose
	// active dataset is empty yield zero outcomes without running.
	rq3       = Sweep{Name: "RQ3", Rows: rowsOf(seeds.AllSources, seeds.Source.String, TreatmentSourceActive), order: rowProtoGen}
	crossPort = Sweep{Name: "Figure 7", Rows: append(slices.Clone(portRows), rowAllActive), order: rowProtoGen}
	// Tables 9-12, the full grid behind RQ1-RQ2, in the tables' row order.
	// "Active-Inactive" is the paper's shorthand for the joint-dealiased
	// dataset, which still mixes responsive and unresponsive seeds.
	rawGrid = Sweep{Name: "Raw grid", order: protoRowGen, Rows: append([]Row{
		{Label: "All", Treatment: TreatmentFull},
		{Label: "Offline Dealiased", Treatment: TreatmentDealiased(alias.ModeOffline)},
		{Label: "Online Dealiased", Treatment: TreatmentDealiased(alias.ModeOnline)},
		{Label: "Active-Inactive", Treatment: TreatmentDealiased(alias.ModeJoint)},
		rowAllActive,
	}, portRows...)}
	// The TGA cohorts RQ5 tracks over time. The daemon's own per-epoch
	// cells depend on tracker state and are not part of the static plan.
	rq5Cohorts = Sweep{Name: "RQ5 / metrics over time", Rows: []Row{rowAllActive}}
)

// perSource is the sweep Tables 5, 6 and 13-15 each ask the engine for.
func perSource(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq3, p.Protos, p.Gens, p.quarter())} }

type renderFunc = func(ctx context.Context, e *Env, rs []*SweepResult) ([]string, error)

// overlaps renders Figure 1 or (responsive) 2: overlap by IP, then by AS.
func overlaps(responsive bool, fig, what string) renderFunc {
	return func(_ context.Context, e *Env, _ []*SweepResult) ([]string, error) {
		ips, ases := e.SourceOverlaps(responsive)
		return []string{
			renderOverlap(fig+"a: "+what+" overlap by IP", ips),
			renderOverlap(fig+"b: "+what+" overlap by AS", ases),
		}, nil
	}
}

// comparison renders a two-row sweep's ratio table, then its bar figure.
func comparison(figure bool) renderFunc {
	return func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
		res := newComparison(rs[0])
		if !figure {
			return []string{res.Render()}, nil
		}
		return []string{res.Render(), res.RenderFigure()}, nil
	}
}

// Sections is the evaluation, in print order: what `experiments -run`
// selects from, -list-cells plans, and the root benchmarks iterate.
var Sections = []Section{
	{Name: "table1", render: func(context.Context, *Env, []*SweepResult) ([]string, error) {
		return []string{renderPriorWork()}, nil
	}},
	{Name: "table3", render: func(_ context.Context, e *Env, _ []*SweepResult) ([]string, error) {
		sum := e.DatasetSummary()
		return []string{sum.Render(), sum.RenderWithPaper()}, nil
	}},
	{Name: "table7", render: func(context.Context, *Env, []*SweepResult) ([]string, error) {
		return []string{renderTable7()}, nil
	}},
	{Name: "fig1", render: overlaps(false, "Figure 1", "seed source")},
	{Name: "fig2", render: overlaps(true, "Figure 2", "responsive")},
	{Name: "fig3",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq1a, p.Protos, p.Gens, p.Budget)} },
		render: comparison(true)},
	{Name: "table4",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(table4, icmpOnly, p.Gens, p.Budget)} },
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return []string{(&Table4Result{rs[0]}).Render()}, nil
		}},
	{Name: "fig4",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq1b, p.Protos, p.Gens, p.Budget)} },
		render: comparison(false)},
	{Name: "fig5",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq2, p.Protos, p.Gens, p.Budget)} },
		render: comparison(true)},
	{Name: "table5",
		sweeps: func(e *Env, p Params) []Sweep {
			rq3 := perSource(e, p)[0]
			return []Sweep{rq3, e.table5Big(rq3)}
		},
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return []string{renderTable5(rs[0], rs[1])}, nil
		}},
	{Name: "table6", sweeps: perSource,
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return []string{renderTable6(rs[0])}, nil
		}},
	{Name: "raw", sweeps: perSource,
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return rs[0].renderRaw("Raw Hits per source (%s) — Tables 13/14", "Raw ASes per source (%s) — Tables 13/15"), nil
		}},
	{Name: "fig6",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq4, p.Protos, p.Gens, p.Budget)} },
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			res := newRQ4(rs[0])
			blocks := []string{res.Render()}
			for _, p := range res.Protos {
				blocks = append(blocks, res.RenderCumulativeFigure(p))
			}
			return blocks, nil
		}},
	{Name: "fig7",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(crossPort, proto.All[:], p.Gens, p.quarter())} },
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return []string{renderCrossPort(rs[0])}, nil
		}},
	{Name: "rq5",
		sweeps: func(e *Env, p Params) []Sweep { return e.recommendationSweeps(p.Gens, p.Budget) },
		render: func(_ context.Context, e *Env, rs []*SweepResult) ([]string, error) {
			return []string{renderRecommendations(e.recommendations(rs))}, nil
		}},
	{Name: "rq5time",
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rq5Cohorts, icmpOnly, p.Gens, p.Budget)} },
		render: func(ctx context.Context, e *Env, rs []*SweepResult) ([]string, error) {
			res, err := e.rq5Time(ctx, rs[0], 0)
			if err != nil {
				return nil, err
			}
			return []string{res.Render()}, nil
		}},
	{Name: "raw912", OptIn: true,
		sweeps: func(e *Env, p Params) []Sweep { return []Sweep{e.sweep(rawGrid, p.Protos, p.Gens, p.Budget)} },
		render: func(_ context.Context, _ *Env, rs []*SweepResult) ([]string, error) {
			return rs[0].renderRaw("Raw Hits (%s) — Tables 9-12", "Raw ASes (%s) — Tables 9-12"), nil
		}},
	{Name: "ablation", OptIn: true,
		sweeps: func(e *Env, p Params) []Sweep {
			return []Sweep{e.batchAblation("DET", proto.ICMP, p.Budget, []int{256, 1024, 4096, p.Budget})}
		},
		render: func(_ context.Context, e *Env, rs []*SweepResult) ([]string, error) {
			return []string{e.renderAblation(rs[0])}, nil
		}},
}
