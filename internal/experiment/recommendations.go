package experiment

import (
	"fmt"
	"strings"

	"seedscan/internal/proto"
)

// RQ5 (§10) distills the study into operational recommendations. This
// harness re-derives each recommendation from a small set of live
// measurements on the current environment, so the printed guidance always
// carries the evidence that produced it.

// Recommendation is one best-practice item with its supporting numbers.
type Recommendation struct {
	Title    string
	Guidance string
	Evidence string
}

// recommendationSweeps declares §10's measurement runs: single-protocol
// RQ1.a, RQ1.b, RQ2 and RQ4, in the order recommendations takes them.
func (e *Env) recommendationSweeps(gens []string, budget int) []Sweep {
	return []Sweep{
		e.sweep(rq1a, icmpOnly, gens, budget),
		e.sweep(rq1b, icmpOnly, gens, budget),
		e.sweep(rq2, []proto.Protocol{proto.TCP443}, gens, budget),
		e.sweep(rq4, icmpOnly, gens, budget),
	}
}

// recommendations evaluates the evidence behind each of the paper's §10
// recommendations on this environment, from recommendationSweeps' results:
// each is single-protocol, so every metric is read at protocol index 0.
func (e *Env) recommendations(rs []*SweepResult) []Recommendation {
	var out []Recommendation
	gens := rs[0].Gens

	// 1. Dealiasing.
	out = append(out, Recommendation{
		Title: "Dealiasing",
		Guidance: "Dealias seed datasets with BOTH the published offline list and " +
			"the online /96 test before generation.",
		Evidence: fmt.Sprintf("joint-dealiased seeds changed ICMP hits by %+.2f PR on average "+
			"and cut generated aliases by %+.2f PR across %d generators",
			rs[0].meanRatio(metricHits, 0), rs[0].meanRatio(metricAliases, 0), len(gens)),
	})

	// 2. Unresponsive addresses.
	out = append(out, Recommendation{
		Title:    "Unresponsive Addresses",
		Guidance: "Pre-scan seeds and drop addresses that no longer respond on any protocol.",
		Evidence: fmt.Sprintf("responsive-only seeds changed ICMP hits by %+.2f PR on average", rs[1].meanRatio(metricHits, 0)),
	})

	// 3. Port-specific seeds.
	out = append(out, Recommendation{
		Title: "Port-Specific Seeds",
		Guidance: "Restrict seeds to the scanned port for more application-layer hits, " +
			"but blend ICMP-active seeds back in when network coverage matters.",
		Evidence: fmt.Sprintf("TCP443-specific seeds: hits %+.2f PR but ASes %+.2f PR on average "+
			"— the hits-vs-diversity tradeoff", rs[2].meanRatio(metricHits, 0), rs[2].meanRatio(metricASes, 0)),
	})

	// 4. Multiple ports.
	out = append(out, Recommendation{
		Title:    "Ports",
		Guidance: "Evaluate TGAs on multiple ports/protocols; per-port topology differs.",
		Evidence: fmt.Sprintf("seed responsiveness in this environment: ICMP %d, TCP80 %d, TCP443 %d, UDP53 %d",
			e.PortActiveSeeds(proto.ICMP).Len(), e.PortActiveSeeds(proto.TCP80).Len(),
			e.PortActiveSeeds(proto.TCP443).Len(), e.PortActiveSeeds(proto.UDP53).Len()),
	})

	// 5-6. Generator choice and combination.
	hitOrder, asOrder := newRQ4(rs[3]).Cover(0)
	topShare := 0.0
	if total := hitOrder[len(hitOrder)-1].Total; total > 0 {
		topShare = float64(hitOrder[0].New) / float64(total)
	}
	out = append(out, Recommendation{
		Title: "Generators",
		Guidance: "No single TGA wins both metrics; pick per metric " +
			"(hits vs network diversity) or run several.",
		Evidence: fmt.Sprintf("best on hits: %s; best on ASes: %s", hitOrder[0].Name, asOrder[0].Name),
	})
	out = append(out, Recommendation{
		Title:    "Combining Generators",
		Guidance: "Run multiple TGAs and union their output for representative coverage.",
		Evidence: fmt.Sprintf("the top generator alone covers %.0f%% of combined hits (%s of %s); "+
			"each additional TGA adds unique addresses",
			100*topShare, FmtInt(hitOrder[0].New), FmtInt(hitOrder[len(hitOrder)-1].Total)),
	})
	return out
}

// renderRecommendations prints §10's list with evidence.
func renderRecommendations(recs []Recommendation) string {
	var sb strings.Builder
	sb.WriteString("RQ5 (§10): Recommendations and best practices, with measured evidence\n")
	sb.WriteString(strings.Repeat("-", 70))
	sb.WriteByte('\n')
	for i, r := range recs {
		fmt.Fprintf(&sb, "%d. %s\n   %s\n   evidence: %s\n", i+1, r.Title, r.Guidance, r.Evidence)
	}
	return sb.String()
}
