package experiment

import (
	"context"

	"seedscan/internal/proto"
)

// RunRQ2Ctx answers RQ2 (Figure 5): does tailoring the seed dataset to the
// scanned port/protocol help? Original = All Active; changed = seeds
// active on the scanned protocol specifically.
func (e *Env) RunRQ2Ctx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return e.compare(ctx, e.SpecRQ2(protos, gens, budget), "All Active", "Port-Specific",
		treatAllActive, treatPort, protos, gens, budget)
}

// CrossPortResult holds Appendix D's Figure 7: hits per (input dataset
// active on X) × (scanned protocol Y), summed over generators.
type CrossPortResult struct {
	Budget int
	Gens   []string
	// Hits[input][scan] — input indexes proto.All plus the final "All
	// Active" row at index proto.Count.
	Hits [proto.Count + 1][proto.Count]int
}

// InputLabels names the cross-port input datasets in order.
var InputLabels = []string{"ICMP", "TCP80", "TCP443", "UDP53", "All Active"}

// RunCrossPortCtx reproduces Figure 7: each input dataset (seeds active on
// one protocol, plus All Active) scanned on every protocol.
func (e *Env) RunCrossPortCtx(ctx context.Context, gens []string, budget int) (*CrossPortResult, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	rs, err := e.Grid().Run(ctx, e.SpecCrossPort(gens, budget))
	if err != nil {
		return nil, err
	}
	res := &CrossPortResult{Budget: budget, Gens: gens}
	for i, in := range crossPortInputs() {
		for _, scanP := range proto.All {
			total := 0
			for _, g := range gens {
				total += rs.Of(e.cell(g, in, scanP, budget, 0)).Outcome.Hits
			}
			res.Hits[i][scanP] = total
		}
	}
	return res, nil
}

// Render prints the cross-port matrix.
func (r *CrossPortResult) Render() string {
	t := &Table{
		Title:  "Figure 7: Active addresses per scanned protocol, by input dataset",
		Header: []string{"Input \\ Scan", "ICMP", "TCP80", "TCP443", "UDP53"},
	}
	for i, label := range InputLabels {
		t.AddRow(label,
			fmtInt(r.Hits[i][proto.ICMP]), fmtInt(r.Hits[i][proto.TCP80]),
			fmtInt(r.Hits[i][proto.TCP443]), fmtInt(r.Hits[i][proto.UDP53]))
	}
	return t.String()
}
