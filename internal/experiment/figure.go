package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"seedscan/internal/proto"
)

// Figures 3-5 are grouped bar charts of Performance Ratios. RenderFigure
// draws them as horizontal ASCII bars so the text output reads like the
// paper's figures: zero in the middle, improvement to the right,
// degradation to the left.

// barWidth is the half-width of a ratio bar in characters.
const barWidth = 24

// barScale is the Performance Ratio magnitude that saturates a bar.
const barScale = 4.0

func ratioBar(v float64) string {
	mag := math.Abs(v) / barScale
	if mag > 1 {
		mag = 1
	}
	n := int(math.Round(mag * barWidth))
	left := strings.Repeat(" ", barWidth)
	right := strings.Repeat(" ", barWidth)
	if v < 0 {
		left = strings.Repeat(" ", barWidth-n) + strings.Repeat("#", n)
	} else if n > 0 {
		right = strings.Repeat("#", n) + strings.Repeat(" ", barWidth-n)
	}
	return left + "|" + right
}

// RenderFigure draws the comparison's hits and ASes Performance Ratios as
// bars per protocol, Figure 3/4/5-style.
func (r *ComparisonResult) RenderFigure() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s vs. %s (Performance Ratio; bar full scale ±%.0f)\n",
		r.Name, r.Rows[1].Label, r.Rows[0].Label, barScale)
	for pi, p := range r.Protos {
		fmt.Fprintf(&sb, "\n[%s]%*s-%s 0 +%s\n", p, 10, "",
			strings.Repeat(" ", barWidth-4), strings.Repeat(" ", barWidth-4))
		for gi, g := range r.Gens {
			hits, ases := r.ratio(metricHits, pi, gi), r.ratio(metricASes, pi, gi)
			fmt.Fprintf(&sb, "%-8s hits %s %+6.2f\n", g, ratioBar(hits), hits)
			fmt.Fprintf(&sb, "%-8s ases %s %+6.2f\n", "", ratioBar(ases), ases)
		}
	}
	return sb.String()
}

// RenderCumulativeFigure draws Figure 6's cumulative curves as text bars:
// each generator's share of the combined total. It is empty for a
// protocol the sweep did not scan.
func (r *RQ4Result) RenderCumulativeFigure(p proto.Protocol) string {
	pi := slices.Index(r.Protos, p)
	if pi < 0 || len(r.Gens) == 0 {
		return ""
	}
	order, _ := r.Cover(pi)
	total := order[len(order)-1].Total
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 (%s): cumulative unique hits, combined total %s\n", p, FmtInt(total))
	for _, c := range order {
		frac := 0.0
		if total > 0 {
			frac = float64(c.Total) / float64(total)
		}
		n := int(frac * 48)
		fmt.Fprintf(&sb, "%-8s %s %5.1f%% (+%s)\n", c.Name,
			strings.Repeat("#", n)+strings.Repeat(".", 48-n), 100*frac, FmtInt(c.New))
	}
	return sb.String()
}
