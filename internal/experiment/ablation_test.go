package experiment

import (
	"context"
	"slices"
	"strings"
	"testing"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
)

func TestOracleMatchesScannerOnCleanTargets(t *testing.T) {
	e := testEnv(t)
	targets := e.AllActiveSeeds().Slice()
	if len(targets) > 2000 {
		targets = targets[:2000]
	}
	agree := e.ScanAgreement(targets, proto.ICMP)
	// Loss (1%, recovered by retries) and rate-limited regions bound the
	// disagreement; anything below this signals a packet-path bug.
	if agree < 0.97 {
		t.Fatalf("scanner/oracle agreement = %.3f", agree)
	}
}

func TestOracleProberShape(t *testing.T) {
	e := testEnv(t)
	o := &OracleProber{World: e.World}
	targets := e.AllActiveSeeds().Slice()[:50]
	res := o.Scan(targets, proto.ICMP)
	if len(res) != 50 {
		t.Fatalf("results = %d", len(res))
	}
	active := o.ScanActive(targets, proto.ICMP)
	n := 0
	for _, r := range res {
		if r.Active() {
			n++
		}
	}
	if len(active) != n {
		t.Fatalf("ScanActive %d vs %d active results", len(active), n)
	}
}

func TestBatchSizeAblation(t *testing.T) {
	e := testEnv(t)
	rs, err := e.runSweep(context.Background(), e.batchAblation("DET", proto.ICMP, 3000, []int{512, 3000}))
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[int]int, len(rs.Rows))
	for i, row := range rs.Rows {
		hits[row.Batch] = metricRawHits(rs.At(i, 0, 0))
	}
	if len(hits) != 2 {
		t.Fatalf("sizes = %d", len(hits))
	}
	for bs, h := range hits {
		if h == 0 {
			t.Fatalf("batch %d found nothing", bs)
		}
	}
}

func TestRawGridShape(t *testing.T) {
	e := testEnv(t)
	sw := e.sweep(rawGrid, icmpOnly, []string{"6Tree"}, 2000)
	all, active := slices.Index(sw.Rows, row{Label: "All", Treatment: TreatmentFull}), slices.Index(sw.Rows, rowAllActive)
	sw.Rows = []row{sw.Rows[all], sw.Rows[active]}
	rs, err := e.runSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	allOut, activeOut := rs.At(0, 0, 0).Outcome, rs.At(1, 0, 0).Outcome
	if allOut.Hits == 0 || activeOut.Hits == 0 {
		t.Fatalf("grid zeros: %+v / %+v", allOut, activeOut)
	}
	// The recommended treatment must not be worse than raw seeds by much.
	if float64(activeOut.Hits) < 0.5*float64(allOut.Hits) {
		t.Fatalf("All Active (%d) collapsed vs All (%d)", activeOut.Hits, allOut.Hits)
	}
	if out := rs.renderRaw("Hits (%s)", "ASes (%s)"); len(out) != 1 || !strings.Contains(out[0], "All Active") {
		t.Fatalf("render = %q", out)
	}
}

func TestGridSeedsResolveAllLabels(t *testing.T) {
	e := testEnv(t)
	rows := rawGrid.Rows
	if len(rows) != 9 {
		t.Fatalf("Tables 9-12 have %d rows, want 9", len(rows))
	}
	for _, row := range rows {
		got, err := e.TreatmentSeeds(row.Treatment)
		if err != nil {
			t.Fatalf("treatment %q: %v", row.Label, err)
		}
		if len(got) == 0 {
			t.Fatalf("treatment %q resolved to empty seeds", row.Label)
		}
	}
	// The scanned-port placeholder is resolved by Spec, never by the
	// executor.
	for _, bogus := range []grid.Treatment{"unknown:bogus", treatmentScannedPort} {
		if _, err := e.TreatmentSeeds(bogus); err == nil {
			t.Fatalf("treatment %q resolved", bogus)
		}
	}
}
