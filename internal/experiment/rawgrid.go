package experiment

import (
	"context"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// The appendix's Tables 9-12 are the full grid behind RQ1-RQ2: every
// generator run on every dataset treatment, per protocol, reporting raw
// hits and ASes. GridDatasets lists the treatments in the tables' row
// order.
var GridDatasets = []string{
	"All",
	"Offline Dealiased",
	"Online Dealiased",
	"Active-Inactive",
	"All Active",
	"ICMP",
	"TCP80",
	"TCP443",
	"UDP53",
}

// gridTreatment resolves a treatment row label to its grid treatment.
// Rows shared with the RQ specs ("All", "Active-Inactive", "All Active",
// the port rows) map to the identical treatments, so their cells dedup
// against RQ1/RQ2/RQ4 runs.
func gridTreatment(label string) grid.Treatment {
	switch label {
	case "All":
		return TreatmentFull
	case "Offline Dealiased":
		return TreatmentDealiased(alias.ModeOffline)
	case "Online Dealiased":
		return TreatmentDealiased(alias.ModeOnline)
	case "Active-Inactive":
		// The paper's shorthand for the joint-dealiased dataset, which
		// still mixes responsive and unresponsive seeds.
		return TreatmentDealiased(alias.ModeJoint)
	case "All Active":
		return TreatmentAllActive
	case "ICMP":
		return TreatmentPortActive(proto.ICMP)
	case "TCP80":
		return TreatmentPortActive(proto.TCP80)
	case "TCP443":
		return TreatmentPortActive(proto.TCP443)
	case "UDP53":
		return TreatmentPortActive(proto.UDP53)
	}
	return grid.Treatment("unknown:" + label)
}

// RawGrid holds Tables 9-12: Outcome[p][dataset][gen].
type RawGrid struct {
	Budget   int
	Gens     []string
	Datasets []string
	Outcome  map[proto.Protocol]map[string]map[string]metrics.Outcome
}

// RunRawGridCtx reproduces Tables 9-12 for the given protocols and
// generators, optionally restricting the dataset rows (nil = all nine).
func (e *Env) RunRawGridCtx(ctx context.Context, protos []proto.Protocol, gens, datasets []string, budget int) (*RawGrid, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	if datasets == nil {
		datasets = GridDatasets
	}
	rs, err := e.Grid().Run(ctx, e.SpecRawGrid(protos, gens, datasets, budget))
	if err != nil {
		return nil, err
	}
	rg := &RawGrid{
		Budget: budget, Gens: gens, Datasets: datasets,
		Outcome: make(map[proto.Protocol]map[string]map[string]metrics.Outcome),
	}
	for _, p := range protos {
		rg.Outcome[p] = make(map[string]map[string]metrics.Outcome)
		for _, ds := range datasets {
			rg.Outcome[p][ds] = make(map[string]metrics.Outcome)
			for _, g := range gens {
				rg.Outcome[p][ds][g] = rs.Of(e.cell(g, gridTreatment(ds), p, budget, 0)).Outcome
			}
		}
	}
	return rg, nil
}

// Render prints one protocol's grid in the layout of Tables 9-12: a Hits
// block then an ASes block, datasets as rows and generators as columns.
func (g *RawGrid) Render(p proto.Protocol) string {
	hits := &Table{
		Title:  "Raw Hits (" + p.String() + ") — Tables 9-12",
		Header: append([]string{"Dataset"}, g.Gens...),
	}
	ases := &Table{
		Title:  "Raw ASes (" + p.String() + ") — Tables 9-12",
		Header: append([]string{"Dataset"}, g.Gens...),
	}
	for _, ds := range g.Datasets {
		hr := []string{ds}
		ar := []string{ds}
		for _, gen := range g.Gens {
			o := g.Outcome[p][ds][gen]
			hr = append(hr, fmtInt(o.Hits))
			ar = append(ar, fmtInt(o.ASes))
		}
		hits.AddRow(hr...)
		ases.AddRow(ar...)
	}
	return hits.String() + "\n" + ases.String()
}
