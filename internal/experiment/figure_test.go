package experiment

import (
	"strings"
	"testing"

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

func TestRenderFigure(t *testing.T) {
	r := &ComparisonResult{
		SweepResult: &SweepResult{Sweep: Sweep{Name: "RQ-test", Rows: []Row{{Label: "A"}, {Label: "B"}}}},
		Ratios: map[proto.Protocol][]metrics.RatioRow{
			proto.ICMP: {{Generator: "6Tree", Hits: 1.5, ASes: -0.5}},
		},
	}
	out := r.RenderFigure()
	if !strings.Contains(out, "RQ-test: B vs. A") || !strings.Contains(out, "6Tree") || !strings.Contains(out, "#") {
		t.Fatalf("figure render:\n%s", out)
	}
}

func TestRenderCumulativeFigure(t *testing.T) {
	r := &RQ4Result{
		HitOrder: map[proto.Protocol][]metrics.Contribution{
			proto.ICMP: {
				{Name: "6Sense", New: 60, Total: 60},
				{Name: "6Tree", New: 40, Total: 100},
			},
		},
	}
	out := r.RenderCumulativeFigure(proto.ICMP)
	if !strings.Contains(out, "6Sense") || !strings.Contains(out, "100.0%") {
		t.Fatalf("cumulative figure:\n%s", out)
	}
	if (&RQ4Result{HitOrder: map[proto.Protocol][]metrics.Contribution{}}).RenderCumulativeFigure(proto.ICMP) != "" {
		t.Fatal("missing protocol should render empty")
	}
}

func TestRatioSummary(t *testing.T) {
	rows := []metrics.RatioRow{
		{Hits: 1, ASes: 2, Aliases: -1},
		{Hits: 3, ASes: 0, Aliases: -1},
	}
	if m := meanRatios(rows); m.Hits != 2 || m.ASes != 1 || m.Aliases != -1 {
		t.Fatalf("mean = %+v", m)
	}
	if m := meanRatios(nil); m != (metrics.RatioRow{}) {
		t.Fatalf("empty mean = %+v", m)
	}
}
