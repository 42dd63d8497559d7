package experiment

import (
	"strings"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
)

// TestTable4RenderExtendedModes pins that extending alias.Modes with the
// cool-down treatment extends Table 4 without breaking the golden rows:
// the paper's four columns keep their order and labels, the new column
// appends after them, and a row renders one value per mode.
func TestTable4RenderExtendedModes(t *testing.T) {
	paper := []alias.Mode{alias.ModeNone, alias.ModeOffline, alias.ModeOnline, alias.ModeJoint}
	for i, m := range paper {
		if alias.Modes[i] != m {
			t.Fatalf("Modes[%d] = %v, want %v — paper column order must not change", i, alias.Modes[i], m)
		}
	}
	if last := alias.Modes[len(alias.Modes)-1]; last != alias.ModeCooldown {
		t.Fatalf("extension column = %v, want cooldown appended last", last)
	}

	sw := table4
	sw.Protos, sw.Gens, sw.Budget = icmpOnly, []string{"6Tree"}, 1000
	res := &Table4Result{&SweepResult{Sweep: sw}}
	for _, aliases := range []int{500, 400, 30, 2, 7} {
		res.cells = append(res.cells, grid.CellResult{Outcome: metrics.Outcome{Aliases: aliases}})
	}
	got := res.Render()
	for _, label := range []string{"D_All", "D_offline", "D_online", "D_joint", "D_cooldown"} {
		if !strings.Contains(got, label) {
			t.Errorf("render missing column %q:\n%s", label, got)
		}
	}
	// Column order: the cool-down label comes after the paper's columns.
	if strings.Index(got, "D_cooldown") < strings.Index(got, "D_joint") {
		t.Errorf("D_cooldown must render after D_joint:\n%s", got)
	}
	for _, v := range []string{"500", "400", "30", "2", "7"} {
		if !strings.Contains(got, v) {
			t.Errorf("render missing value %q:\n%s", v, got)
		}
	}
}
