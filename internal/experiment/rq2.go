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
	return run(ctx, e, e.sweep(rq2, protos, gens, budget), newComparison)
}

// renderCrossPort prints Figure 7: hits per input dataset × scanned
// protocol, summed over generators.
func renderCrossPort(rs *SweepResult) string {
	scans := make([]string, len(rs.Protos))
	for pi, p := range rs.Protos {
		scans[pi] = p.String()
	}
	return matrix("Figure 7: Active addresses per scanned protocol, by input dataset", "Input \\ Scan",
		rs.labels(), scans, func(ri, pi int) int {
			total := 0
			for _, c := range rs.along(ri, pi, every) {
				total += metricHits(c)
			}
			return total
		})
}
