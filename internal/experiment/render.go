package experiment

import (
	"fmt"
	"strings"
)

// table is a minimal text table for rendering paper-style results.
type table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// FmtInt renders n with thousands separators, as the paper's tables do.
func FmtInt(n int) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// fmtRatio renders a Performance Ratio with sign and two decimals.
func fmtRatio(f float64) string { return fmt.Sprintf("%+.2f", f) }

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
