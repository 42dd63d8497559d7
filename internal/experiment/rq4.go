package experiment

import (
	"context"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// RQ4Result holds RQ4 (Figure 6): every generator run on the All Active
// dataset per protocol (the sweep's one row), with the greedy cumulative-
// contribution orderings for hits and ASes.
type RQ4Result struct {
	*SweepResult
	// HitOrder[p] / ASOrder[p] are the greedy coverage orderings.
	HitOrder map[proto.Protocol][]metrics.Contribution
	ASOrder  map[proto.Protocol][]metrics.Contribution
}

// SpecRQ4 enumerates RQ4 / Figure 6: every generator on All Active per
// protocol.
func (e *Env) SpecRQ4(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq4, protos, gens, budget).Spec()
}

// RunRQ4Ctx reproduces Figure 6: combined-generator coverage on All Active.
func (e *Env) RunRQ4Ctx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*RQ4Result, error) {
	return run(ctx, e, e.sweep(rq4, protos, gens, budget), e.foldRQ4)
}

// foldRQ4 orders each protocol's generators by greedy marginal coverage.
func (e *Env) foldRQ4(rs *SweepResult) *RQ4Result {
	res := &RQ4Result{
		SweepResult: rs,
		HitOrder:    make(map[proto.Protocol][]metrics.Contribution),
		ASOrder:     make(map[proto.Protocol][]metrics.Contribution),
	}
	db := e.World.ASDB()
	for pi, p := range rs.Protos {
		hitSets := make(map[string]map[ipaddr.Addr]struct{}, len(rs.Gens))
		asSets := make(map[string]map[int]struct{}, len(rs.Gens))
		for gi, g := range rs.Gens {
			hits := rs.At(0, pi, gi).Hits
			hitSets[g] = metrics.AddrSet(hits)
			asSets[g] = db.ASSet(hits)
		}
		res.HitOrder[p] = metrics.GreedyCover(hitSets)
		res.ASOrder[p] = metrics.GreedyCover(asSets)
	}
	return res
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
				an, at = FmtInt(ases[i].New), FmtInt(ases[i].Total)
			}
			t.AddRow(FmtInt(i+1), hits[i].Name, FmtInt(hits[i].New), FmtInt(hits[i].Total), ag, an, at)
		}
		out += t.String() + "\n"
	}
	return out
}
