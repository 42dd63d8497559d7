package experiment

import (
	"context"
	"strings"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
)

// testEnv is a compact environment shared by the integration tests. Budgets
// are small; assertions check shape, not magnitude.
func testEnv(t testing.TB) *Env {
	t.Helper()
	return NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 4000})
}

func TestEnvConstruction(t *testing.T) {
	e := testEnv(t)
	if e.Full.Len() < 20000 {
		t.Fatalf("full dataset = %d", e.Full.Len())
	}
	if len(e.Sources) != len(seeds.AllSources) {
		t.Fatalf("sources = %d", len(e.Sources))
	}
	if e.Offline.Len() == 0 {
		t.Fatal("offline list empty")
	}
	// The offline list must be incomplete.
	if e.Offline.Len() >= len(e.World.AliasedPrefixes()) {
		t.Fatal("offline list should not cover all ground truth")
	}
}

func TestDealiasingTreatmentsShrinkMonotonically(t *testing.T) {
	e := testEnv(t)
	full := e.Full.Len()
	off := e.DealiasedSeeds(alias.ModeOffline).Len()
	joint := e.DealiasedSeeds(alias.ModeJoint).Len()
	if !(joint <= off && off < full) {
		t.Fatalf("sizes: full=%d offline=%d joint=%d", full, off, joint)
	}
	// Joint must remove a substantial share: the collectors pour in
	// aliases.
	if float64(joint) > 0.9*float64(full) {
		t.Fatalf("joint dealiasing removed too little: %d of %d", joint, full)
	}
}

func TestActiveSubsets(t *testing.T) {
	e := testEnv(t)
	allActive := e.AllActiveSeeds()
	joint := e.DealiasedSeeds(alias.ModeJoint)
	if allActive.Len() == 0 || allActive.Len() >= joint.Len() {
		t.Fatalf("allActive=%d joint=%d", allActive.Len(), joint.Len())
	}
	for _, p := range proto.All {
		port := e.PortActiveSeeds(p)
		if port.Len() == 0 {
			t.Fatalf("%v active empty", p)
		}
		// Port-specific ⊆ All Active.
		if port.Addrs.Diff(allActive.Addrs).Len() != 0 {
			t.Fatalf("%v active not a subset of All Active", p)
		}
	}
	// ICMP dominates (the world is ping-friendlier than TCP).
	if e.PortActiveSeeds(proto.ICMP).Len() < e.PortActiveSeeds(proto.UDP53).Len() {
		t.Fatal("ICMP active should exceed UDP53 active")
	}
}

func TestDatasetSummaryShape(t *testing.T) {
	e := testEnv(t)
	sum := e.DatasetSummary()
	if len(sum.Rows) != len(seeds.AllSources)+4 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	byName := map[string]DatasetSummaryRow{}
	for _, r := range sum.Rows {
		byName[r.Source] = r
		if r.ActiveAny > r.Dealiased || r.Dealiased > r.Unique {
			t.Fatalf("%s: active %d > dealiased %d > unique %d invariant broken",
				r.Source, r.ActiveAny, r.Dealiased, r.Unique)
		}
		if r.ActiveASes > r.ASes {
			t.Fatalf("%s: activeASes %d > ASes %d", r.Source, r.ActiveASes, r.ASes)
		}
	}
	// Traceroute sources cover nearly all ASes; AddrMiner is alias-heavy.
	total := byName["All Sources"]
	scamper := byName["Scamper"]
	if float64(scamper.ASes) < 0.9*float64(total.ASes) {
		t.Fatalf("Scamper AS coverage %d of %d too low", scamper.ASes, total.ASes)
	}
	am := byName["AddrMiner"]
	if float64(am.Dealiased) > 0.5*float64(am.Unique) {
		t.Fatalf("AddrMiner should be mostly aliased: %d of %d clean", am.Dealiased, am.Unique)
	}
	hl := byName["IPv6 Hitlist"]
	if float64(hl.Dealiased) < 0.9*float64(hl.Unique) {
		t.Fatalf("Hitlist should be mostly clean: %d of %d", hl.Dealiased, hl.Unique)
	}
	if !strings.Contains(sum.Render(), "Scamper") {
		t.Fatal("render missing rows")
	}
	// Table 8's volumes are the domain sources' Unique column.
	domains := 0
	for _, r := range sum.Rows[:len(seeds.AllSources)] {
		if r.Category != "D" {
			continue
		}
		domains++
		if r.Unique == 0 {
			t.Fatalf("%s empty", r.Source)
		}
	}
	if domains != 8 {
		t.Fatalf("domain sources = %d", domains)
	}
}

func TestSourceOverlapsShape(t *testing.T) {
	e := testEnv(t)
	ips, ases := e.SourceOverlaps(false)
	if len(ips.Names) != len(seeds.AllSources) || len(ases.Names) != len(ips.Names) {
		t.Fatal("matrix dimensions wrong")
	}
	// Toplists overlap each other far more than with CAIDA DNS.
	idx := map[string]int{}
	for i, n := range ips.Names {
		idx[n] = i
	}
	u, tr, ca := idx["Umbrella"], idx["Tranco"], idx["CAIDA DNS"]
	if ips.Frac[u][tr] <= ips.Frac[u][ca] {
		t.Fatalf("Umbrella overlaps Tranco %.2f vs CAIDA %.2f — toplists should cluster",
			ips.Frac[u][tr], ips.Frac[u][ca])
	}
	// Responsive variant computes too.
	rips, _ := e.SourceOverlaps(true)
	if len(rips.Names) != len(ips.Names) {
		t.Fatal("responsive matrix wrong")
	}
}

func TestRQ1aShape(t *testing.T) {
	e := testEnv(t)
	gens := []string{"6Tree", "6Gen"}
	res, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, gens, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gens) != len(gens) {
		t.Fatalf("rows = %d", len(res.Gens))
	}
	for gi, g := range res.Gens {
		// Dealiasing must slash generated aliases...
		if r := res.ratio(metricAliases, 0, gi); r > -0.5 {
			t.Errorf("%s: aliases ratio %.2f, want deep negative", g, r)
		}
		// ...and must not hurt hits.
		if r := res.ratio(metricHits, 0, gi); r < -0.2 {
			t.Errorf("%s: hits ratio %.2f, dealiasing should help", g, r)
		}
	}
	if !strings.Contains(res.Render(), "ICMP") {
		t.Fatal("render empty")
	}
}

func TestTable4Shape(t *testing.T) {
	e := testEnv(t)
	gens := []string{"6Tree", "6Gen"}
	res, err := e.RunTable4Ctx(context.Background(), gens, 3000)
	if err != nil {
		t.Fatal(err)
	}
	totalRaw := 0
	for gi, g := range gens {
		row := make([]int, len(res.Rows))
		for ri := range res.Rows {
			row[ri] = metricAliases(res.At(ri, 0, gi))
		}
		totalRaw += row[0]
		// Aliases drop as dealiasing gets stricter: none >> joint.
		if row[0] > 0 && row[3] > row[0]/5 {
			t.Errorf("%s: joint %d vs none %d — joint must nearly eliminate aliases", g, row[3], row[0])
		}
	}
	if totalRaw == 0 {
		t.Error("no generator found aliases on raw seeds")
	}
	if !strings.Contains(res.Render(), "D_joint") {
		t.Fatal("render wrong")
	}
}

func TestRQ4GreedyOrdering(t *testing.T) {
	e := testEnv(t)
	gens := []string{"6Sense", "6Tree", "6Scan"}
	res, err := e.RunRQ4Ctx(context.Background(), []proto.Protocol{proto.ICMP}, gens, 3000)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := res.Cover(0)
	if len(hits) != len(gens) {
		t.Fatalf("order entries = %d", len(hits))
	}
	// Greedy: marginal contributions must be non-increasing and totals
	// non-decreasing.
	for i := 1; i < len(hits); i++ {
		if hits[i].New > hits[i-1].New {
			t.Fatalf("greedy violated: %+v", hits)
		}
		if hits[i].Total < hits[i-1].Total {
			t.Fatal("cumulative total decreased")
		}
	}
	if !strings.Contains(res.Render(), "cumulative") {
		t.Fatal("render empty")
	}
}

func TestRQ3AndDerivedTables(t *testing.T) {
	e := testEnv(t)
	sw := e.sweep(rq3, icmpOnly, []string{"6Tree"}, 1500)
	if len(sw.Rows) != len(seeds.AllSources) {
		t.Fatalf("rq3 rows = %d, want every source", len(sw.Rows))
	}
	// Two sources keep the test small; row 0 is the hitlist.
	sw.Rows = []Row{sw.Rows[seeds.SourceHitlist], sw.Rows[seeds.SourceScamper]}
	if sw.Rows[0].Label != seeds.SourceHitlist.String() {
		t.Fatalf("row 0 = %q", sw.Rows[0].Label)
	}
	rq3, err := e.runSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if hitlistHits := rq3.At(0, 0, 0).Outcome.Hits; hitlistHits == 0 {
		t.Fatal("hitlist-seeded run found nothing")
	}
	bigSweep := e.table5Big(sw)
	if bigSweep.Budget != 2*1500 {
		t.Fatalf("big budget = %d, want sources × per-source budget", bigSweep.Budget)
	}
	big, err := e.runSweep(context.Background(), bigSweep)
	if err != nil {
		t.Fatal(err)
	}
	t5 := renderTable5(rq3, big)
	if _, rows, _ := strings.Cut(t5, "-\n"); strings.Count(rows, "\n") != 1 || !strings.HasPrefix(rows, "6Tree") {
		t.Fatalf("table5 rows:\n%s", t5)
	}
	bigHits, combinedHits := metricHits(big.At(0, 0, 0)), len(rq3.union(every, 0, 0))
	if bigHits == 0 || combinedHits == 0 {
		t.Fatalf("table5 zeros: big %d, combined %d", bigHits, combinedHits)
	}
	// Table 6's cell for the hitlist row: its generators' combined hits.
	combined := rq3.union(0, 0, every)
	top, total := rq3.db.TopASes(combined), len(rq3.db.ASSet(combined))
	if total == 0 || len(top) == 0 {
		t.Fatalf("table6 cell empty: %d ASes, top %v", total, top)
	}
	if top[0].Share <= 0 || top[0].Share > 1 {
		t.Fatalf("share out of range: %v", top[0].Share)
	}
	if !strings.Contains(renderTable6(rq3), "Total") || !strings.Contains(t5, "Generator") {
		t.Fatal("renders wrong")
	}
	if raw := rq3.renderRaw("Hits (%s)", "ASes (%s)"); len(raw) != 1 || !strings.Contains(raw[0], "6Tree") {
		t.Fatal("raw render wrong")
	}
}

func TestPriorWorkMatrix(t *testing.T) {
	rows := PriorWorkMatrix()
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check against Table 1.
	if !rows[0].Applies["6Gen"] || rows[0].Applies["DET"] {
		t.Fatal("'All' row wrong")
	}
	if !rows[3].Applies["6Sense"] || rows[3].Applies["DET"] {
		t.Fatal("'Online Dealiasing' row wrong")
	}
	if !rows[6].Applies["6Scan"] {
		t.Fatal("'Port Spec.' row wrong")
	}
	out := renderPriorWork()
	if !strings.Contains(out, "6Sense") || !strings.Contains(out, "Port Spec.") {
		t.Fatal("render wrong")
	}
}

func TestRenderHelpers(t *testing.T) {
	if got := FmtInt(1234567); got != "1,234,567" {
		t.Fatalf("FmtInt = %q", got)
	}
	if got := FmtInt(-1234); got != "-1,234" {
		t.Fatalf("FmtInt neg = %q", got)
	}
	if got := FmtInt(7); got != "7" {
		t.Fatalf("FmtInt small = %q", got)
	}
	if got := fmtRatio(0.5); got != "+0.50" {
		t.Fatalf("fmtRatio = %q", got)
	}
	if got := fmtPct(0.123); got != "12.3%" {
		t.Fatalf("fmtPct = %q", got)
	}
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "bb") {
		t.Fatalf("table render: %q", s)
	}
}
