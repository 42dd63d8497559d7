package experiment

import (
	"context"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
)

// SpecRQ2 enumerates RQ2 / Figure 5: All Active vs. port-specific seeds.
func (e *Env) SpecRQ2(protos []proto.Protocol, gens []string, budget int) grid.Spec {
	return e.sweep(rq2, protos, gens, budget).Spec()
}

// RunRQ2Ctx answers RQ2 (Figure 5): does tailoring the seed dataset to the
// scanned port/protocol help? Original = All Active; changed = seeds
// active on the scanned protocol specifically.
func (e *Env) RunRQ2Ctx(ctx context.Context, protos []proto.Protocol, gens []string, budget int) (*ComparisonResult, error) {
	return run(ctx, e, e.sweep(rq2, protos, gens, budget), foldComparison)
}

// renderCrossPort prints Figure 7: hits per input dataset × scanned
// protocol, summed over generators.
func renderCrossPort(rs *SweepResult) string {
	header := []string{"Input \\ Scan"}
	for _, p := range rs.Protos {
		header = append(header, p.String())
	}
	t := &Table{Title: "Figure 7: Active addresses per scanned protocol, by input dataset", Header: header}
	for ri, row := range rs.Rows {
		cells := []string{row.Label}
		for pi := range rs.Protos {
			cells = append(cells, FmtInt(crossPortHits(rs, ri, pi)))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// crossPortHits is one cell of Figure 7's matrix.
func crossPortHits(rs *SweepResult, row, pi int) int {
	total := 0
	for gi := range rs.Gens {
		total += rs.At(row, pi, gi).Outcome.Hits
	}
	return total
}
