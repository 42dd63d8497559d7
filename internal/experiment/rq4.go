package experiment

import (
	"context"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// RQ4Result holds RQ4 (Figure 6): every generator run on the All Active
// dataset per protocol (the sweep's one row), and each protocol's greedy
// coverage orderings, folded once.
type RQ4Result struct {
	*SweepResult
	hitOrder, asOrder [][]metrics.Contribution // by protocol index
}

// newRQ4 orders each protocol's generators by greedy marginal coverage,
// of hits and of ASes: Figure 6's cumulative contributions.
func newRQ4(rs *SweepResult) *RQ4Result {
	res := &RQ4Result{SweepResult: rs}
	for pi := range rs.Protos {
		addrs := make([][]ipaddr.Addr, len(rs.Gens))
		for gi := range rs.Gens {
			addrs[gi] = rs.At(0, pi, gi).Hits
		}
		ipSets, asSets := metrics.NamedSets(rs.Gens, addrs, rs.db)
		res.hitOrder = append(res.hitOrder, metrics.GreedyCover(ipSets))
		res.asOrder = append(res.asOrder, metrics.GreedyCover(asSets))
	}
	return res
}

// Cover returns the pi-th protocol's generators in greedy marginal
// coverage order, by hits and by ASes.
func (r *RQ4Result) Cover(pi int) (hits, ases []metrics.Contribution) {
	return r.hitOrder[pi], r.asOrder[pi]
}

// SpecRQ4 enumerates RQ4 / Figure 6: every generator on All Active per
// protocol.
func (e *Env) SpecRQ4(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq4, protos, gens, budget).Spec()
}

// RunRQ4Ctx reproduces Figure 6: combined-generator coverage on All Active.
func (e *Env) RunRQ4Ctx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*RQ4Result, error) {
	return run(ctx, e, e.sweep(rq4, protos, gens, budget), newRQ4)
}

// Render prints Figure 6's cumulative contributions.
func (r *RQ4Result) Render() string {
	out := ""
	for pi, p := range r.Protos {
		t := &Table{
			Title:  "Figure 6 (" + p.String() + "): cumulative unique contributions",
			Header: []string{"Order", "Generator", "New Hits", "Cum Hits", "Generator", "New ASes", "Cum ASes"},
		}
		hits, ases := r.Cover(pi)
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
