package experiment

import (
	"strings"
	"testing"

	"seedscan/internal/asdb"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

func TestRatioBarShapes(t *testing.T) {
	zero := ratioBar(0)
	if len(zero) != 2*barWidth+1 || strings.Contains(zero, "#") {
		t.Fatalf("zero bar = %q", zero)
	}
	pos := ratioBar(barScale)
	if !strings.HasSuffix(strings.TrimRight(pos, " "), "#") || strings.Contains(pos[:barWidth], "#") {
		t.Fatalf("positive bar = %q", pos)
	}
	neg := ratioBar(-barScale)
	if !strings.Contains(neg[:barWidth], "#") || strings.Contains(neg[barWidth+1:], "#") {
		t.Fatalf("negative bar = %q", neg)
	}
	// Saturation.
	if ratioBar(100) != ratioBar(barScale) {
		t.Fatal("positive saturation broken")
	}
}

// comparisonOf builds a run comparison over ICMP from per-generator
// (original, changed) outcomes.
func comparisonOf(gens []string, outcomes ...[2]metrics.Outcome) *ComparisonResult {
	rs := &SweepResult{Sweep: Sweep{Name: "RQ-test", Rows: []Row{{Label: "A"}, {Label: "B"}}, Protos: icmpOnly, Gens: gens}}
	for _, pair := range outcomes {
		for _, o := range pair {
			rs.cells = append(rs.cells, grid.CellResult{Outcome: o})
		}
	}
	return &ComparisonResult{rs}
}

func TestRenderFigure(t *testing.T) {
	r := comparisonOf([]string{"6Tree"}, [2]metrics.Outcome{{Hits: 100, ASes: 100}, {Hits: 250, ASes: 50}})
	out := r.RenderFigure()
	if !strings.Contains(out, "RQ-test: B vs. A") || !strings.Contains(out, "6Tree") || !strings.Contains(out, "#") {
		t.Fatalf("figure render:\n%s", out)
	}
	if !strings.Contains(out, "+1.50") || !strings.Contains(out, "-0.50") {
		t.Fatalf("figure ratios:\n%s", out)
	}
}

func TestRenderCumulativeFigure(t *testing.T) {
	addrs := func(from, n int) []ipaddr.Addr {
		out := make([]ipaddr.Addr, n)
		for i := range out {
			out[i] = ipaddr.AddrFrom64s(0x20010db8<<32, uint64(from+i))
		}
		return out
	}
	rs := &SweepResult{
		Sweep: Sweep{Rows: []Row{rowAllActive}, Protos: icmpOnly, Gens: []string{"6Tree", "6Sense"}},
		cells: []grid.CellResult{{Hits: addrs(40, 40)}, {Hits: addrs(0, 60)}},
		db:    asdb.New(),
	}
	r := newRQ4(rs)
	out := r.RenderCumulativeFigure(proto.ICMP)
	if !strings.Contains(out, "6Sense") || !strings.Contains(out, "100.0%") {
		t.Fatalf("cumulative figure:\n%s", out)
	}
	if r.RenderCumulativeFigure(proto.UDP53) != "" {
		t.Fatal("missing protocol should render empty")
	}
}

func TestRatioSummary(t *testing.T) {
	r := comparisonOf([]string{"g0", "g1"},
		[2]metrics.Outcome{{Hits: 100, ASes: 10, Aliases: 10}, {Hits: 200, ASes: 30}},
		[2]metrics.Outcome{{Hits: 100, ASes: 10, Aliases: 10}, {Hits: 400, ASes: 10}})
	if h, a, x := r.meanRatio(metricHits, 0), r.meanRatio(metricASes, 0), r.meanRatio(metricAliases, 0); h != 2 || a != 1 || x != -1 {
		t.Fatalf("mean = hits %v, ASes %v, aliases %v", h, a, x)
	}
	if m := comparisonOf(nil).meanRatio(metricHits, 0); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}
