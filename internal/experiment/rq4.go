package experiment

import (
	"context"

	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// RQ4Result holds RQ4 (Figure 6): every generator run on the All Active
// dataset per protocol, with the greedy cumulative-contribution orderings
// for hits and ASes.
type RQ4Result struct {
	Budget int
	Gens   []string
	// Outcome[p][gen] is the per-run measurement.
	Outcome map[proto.Protocol]map[string]metrics.Outcome
	// HitOrder[p] / ASOrder[p] are the greedy coverage orderings.
	HitOrder map[proto.Protocol][]metrics.Contribution
	ASOrder  map[proto.Protocol][]metrics.Contribution
}

// RunRQ4Ctx reproduces Figure 6: combined-generator coverage on All Active.
func (e *Env) RunRQ4Ctx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*RQ4Result, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	rs, err := e.Grid().Run(ctx, e.SpecRQ4(protos, gens, budget))
	if err != nil {
		return nil, err
	}
	res := &RQ4Result{
		Budget:   budget,
		Gens:     gens,
		Outcome:  make(map[proto.Protocol]map[string]metrics.Outcome),
		HitOrder: make(map[proto.Protocol][]metrics.Contribution),
		ASOrder:  make(map[proto.Protocol][]metrics.Contribution),
	}
	db := e.World.ASDB()
	for _, p := range protos {
		res.Outcome[p] = make(map[string]metrics.Outcome)
		hitSets := make(map[string]map[ipaddr.Addr]struct{}, len(gens))
		asSets := make(map[string]map[int]struct{}, len(gens))
		for _, g := range gens {
			c := rs.Of(e.cell(g, TreatmentAllActive, p, budget, 0))
			res.Outcome[p][g] = c.Outcome
			hitSets[g] = metrics.AddrSet(c.Hits)
			asSets[g] = db.ASSet(c.Hits)
		}
		res.HitOrder[p] = metrics.GreedyCover(hitSets)
		res.ASOrder[p] = metrics.GreedyCover(asSets)
	}
	return res, nil
}

// Render prints Figure 6's cumulative contributions.
func (r *RQ4Result) Render() string {
	out := ""
	for _, p := range proto.All {
		hits, ok := r.HitOrder[p]
		if !ok {
			continue
		}
		t := &Table{
			Title:  "Figure 6 (" + p.String() + "): cumulative unique contributions",
			Header: []string{"Order", "Generator", "New Hits", "Cum Hits", "Generator", "New ASes", "Cum ASes"},
		}
		ases := r.ASOrder[p]
		for i := range hits {
			ag := "-"
			an, at := "-", "-"
			if i < len(ases) {
				ag = ases[i].Name
				an, at = fmtInt(ases[i].New), fmtInt(ases[i].Total)
			}
			t.AddRow(fmtInt(i+1), hits[i].Name, fmtInt(hits[i].New), fmtInt(hits[i].Total), ag, an, at)
		}
		out += t.String() + "\n"
	}
	return out
}
