package experiment

import (
	"context"
	"testing"

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
	hits, err := e.BatchSizeAblation("DET", proto.ICMP, 3000, []int{512, 3000})
	if err != nil {
		t.Fatal(err)
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
	grid, err := e.RunRawGridCtx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree"},
		[]string{"All", "All Active"}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	allOut := grid.Outcome[proto.ICMP]["All"]["6Tree"]
	activeOut := grid.Outcome[proto.ICMP]["All Active"]["6Tree"]
	if allOut.Hits == 0 || activeOut.Hits == 0 {
		t.Fatalf("grid zeros: %+v / %+v", allOut, activeOut)
	}
	// The recommended treatment must not be worse than raw seeds by much.
	if float64(activeOut.Hits) < 0.5*float64(allOut.Hits) {
		t.Fatalf("All Active (%d) collapsed vs All (%d)", activeOut.Hits, allOut.Hits)
	}
	if out := grid.Render(proto.ICMP); len(out) == 0 {
		t.Fatal("render empty")
	}
}

func TestGridSeedsResolveAllLabels(t *testing.T) {
	e := testEnv(t)
	for _, label := range GridDatasets {
		got, err := e.TreatmentSeeds(gridTreatment(label))
		if err != nil {
			t.Fatalf("treatment %q: %v", label, err)
		}
		if len(got) == 0 {
			t.Fatalf("treatment %q resolved to empty seeds", label)
		}
	}
	if _, err := e.TreatmentSeeds(gridTreatment("bogus")); err == nil {
		t.Fatal("bogus label resolved")
	}
}
