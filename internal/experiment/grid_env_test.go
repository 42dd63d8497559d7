package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
)

// TestTreatmentCachesColdConcurrent hits every lazy treatment cache from
// many goroutines with nothing pre-materialized. The per-key singleflight
// must build each artifact exactly once (pointer identity) and stay
// race-clean (run with -race).
func TestTreatmentCachesColdConcurrent(t *testing.T) {
	e := testEnv(t)
	const n = 16
	var wg sync.WaitGroup
	deal := make([]*seeds.Dataset, n)
	allA := make([]*seeds.Dataset, n)
	outd := make([]*alias.Dealiaser, n)
	port := make([]*seeds.Dataset, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := proto.All[i%len(proto.All)]
			deal[i] = e.dealiasedSeeds(alias.ModeJoint)
			outd[i] = e.OutputDealiaser(p)
			port[i] = e.PortActiveSeeds(p)
			allA[i] = e.AllActiveSeeds()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if deal[i] != deal[0] {
			t.Fatal("DealiasedSeeds(joint) built more than once")
		}
		if allA[i] != allA[0] {
			t.Fatal("AllActiveSeeds built more than once")
		}
		if j := i - len(proto.All); j >= 0 {
			if outd[i] != outd[j] {
				t.Fatalf("OutputDealiaser(%s) built more than once", proto.All[i%len(proto.All)])
			}
			if port[i] != port[j] {
				t.Fatalf("PortActiveSeeds(%s) built more than once", proto.All[i%len(proto.All)])
			}
		}
	}
	if allA[0].Len() == 0 || deal[0].Len() == 0 {
		t.Fatal("caches resolved to empty datasets")
	}
}

// TestCrossSpecDedupRunsEachCellOnce asserts the engine's core guarantee
// through the telemetry counters: cells shared between specs (RQ1.b and
// RQ2 both run every generator on All Active; RQ4 runs only already-seen
// cells) execute exactly once.
func TestCrossSpecDedupRunsEachCellOnce(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	e := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 1000, Telemetry: tr})
	gens := []string{"6Tree", "EIP"}
	protos := []proto.Protocol{proto.ICMP}

	if _, err := e.RunRQ1bCtx(context.Background(), protos, gens, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunRQ2Ctx(context.Background(), protos, gens, 1000); err != nil {
		t.Fatal(err)
	}
	snap := tr.Registry().Snapshot()
	// RQ1.b plans (joint, all-active) per generator, RQ2 (all-active,
	// port-active): 8 planned, 6 unique, 2 deduped.
	if got := snap.Counters["grid.cells.planned"]; got != 8 {
		t.Fatalf("grid.cells.planned = %d, want 8", got)
	}
	if got := snap.Counters["grid.cells.run"]; got != 6 {
		t.Fatalf("grid.cells.run = %d, want 6", got)
	}
	if got := snap.Counters["grid.cells.deduped"]; got != 2 {
		t.Fatalf("grid.cells.deduped = %d, want 2", got)
	}

	// RQ4's cells (every generator on All Active, ICMP) were all run by
	// RQ1.b already — nothing new executes.
	if _, err := e.RunRQ4Ctx(context.Background(), protos, gens, 1000); err != nil {
		t.Fatal(err)
	}
	snap = tr.Registry().Snapshot()
	if got := snap.Counters["grid.cells.run"]; got != 6 {
		t.Fatalf("grid.cells.run after RQ4 = %d, want still 6", got)
	}
	if got := snap.Counters["grid.cells.deduped"]; got != 4 {
		t.Fatalf("grid.cells.deduped after RQ4 = %d, want 4", got)
	}

	// Dedup shares results, it does not change them: every planned cell,
	// shared or not, reads back from the engine exactly what executing it
	// directly (RunCell on a fresh environment, no engine) produces.
	direct := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 1000})
	for _, spec := range []grid.Spec{
		e.SpecRQ1b(protos, gens, 1000), e.SpecRQ2(protos, gens, 1000), e.SpecRQ4(protos, gens, 1000),
	} {
		rs, err := e.Grid().Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range spec.Cells {
			want, err := direct.runCell(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.Of(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cell %s: engine outcome %+v, direct outcome %+v", spec.Name, c.ID(), got.Outcome, want.Outcome)
			}
		}
	}
}

// TestGridWidthDoesNotChangeResults runs the cells of RQ1.a, Table 4 and
// RQ4 as one grid at one worker and at four. 6Tree, 6Scan and 6Hit adopt
// one cached tree per treatment, and every cell on a protocol shares that
// protocol's output dealiaser, so at four workers concurrent cells meet
// in both; every CellResult, hit order included, must still match the
// one-worker run (run with -race).
func TestGridWidthDoesNotChangeResults(t *testing.T) {
	gens := []string{"6Tree", "6Scan", "6Hit", "6Gen"}
	protos := []proto.Protocol{proto.ICMP, proto.TCP80}
	const budget = 600
	var specs [2]grid.Spec
	var results [2]grid.Results
	for i, workers := range []int{1, 4} {
		e := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: budget, workers: workers})
		specs[i] = grid.Spec{Name: "width"}
		for _, s := range []grid.Spec{
			e.SpecRQ1a(protos, gens, budget), e.SpecTable4(gens, budget), e.SpecRQ4(protos[:1], gens, budget),
		} {
			specs[i].Cells = append(specs[i].Cells, s.Cells...)
		}
		rs, err := e.Grid().Run(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i] = rs
	}
	if !reflect.DeepEqual(specs[0], specs[1]) {
		t.Fatal("the two widths planned different cells")
	}
	if results[0].Len() < 2*len(gens) {
		t.Fatalf("only %d unique cells", results[0].Len())
	}
	hits := 0
	for _, c := range specs[0].Cells {
		got, want := results[1].Of(c), results[0].Of(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s at 4 workers: %+v, %d hits; at 1 worker: %+v, %d hits",
				c.ID(), got.Outcome, len(got.Hits), want.Outcome, len(want.Hits))
		}
		hits += len(want.Hits)
	}
	if hits == 0 {
		t.Fatal("no cell found a hit: nothing was compared")
	}
	t.Logf("%d unique cells, %d hits compared", results[0].Len(), hits)
}

// cancelAfterStore wraps a Store and cancels a context once `trigger`
// cells have been checkpointed — a deterministic mid-flight interruption
// for the resume-equivalence test (the Env runs with Workers=1).
type cancelAfterStore struct {
	grid.Store
	cancel  context.CancelFunc
	puts    int
	trigger int
}

func (s *cancelAfterStore) Put(key string, c grid.Cell, r grid.CellResult) error {
	err := s.Store.Put(key, c, r)
	s.puts++
	if s.puts == s.trigger {
		s.cancel()
	}
	return err
}

// TestResumeEquivalence is the tentpole's acceptance test: a run
// cancelled mid-flight, resumed from its checkpoint store in a fresh
// environment, renders byte-identically to an uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	cfg := EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 800, workers: 1}
	gens := []string{"6Tree", "EIP"}
	protos := []proto.Protocol{proto.ICMP}

	// Control: one uninterrupted run, no store.
	control, err := NewEnv(cfg).RunRQ1aCtx(context.Background(), protos, gens, 800)
	if err != nil {
		t.Fatal(err)
	}
	want := control.Render()

	// Interrupted run: cancel after two of the four cells are
	// checkpointed.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	js, err := grid.OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	icfg := cfg
	icfg.GridStore = &cancelAfterStore{Store: js, cancel: cancel, trigger: 2}
	if _, err := NewEnv(icfg).RunRQ1aCtx(ctx, protos, gens, 800); err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh environment (fresh process, same config) over the
	// same store file must load the two finished cells and run the rest.
	js2, err := grid.OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer js2.Close()
	if js2.Len() != 2 {
		t.Fatalf("checkpointed cells = %d, want 2", js2.Len())
	}
	tr := telemetry.NewTracer(nil)
	rcfg := cfg
	rcfg.GridStore = js2
	rcfg.Telemetry = tr
	resumed, err := NewEnv(rcfg).RunRQ1aCtx(context.Background(), protos, gens, 800)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Render(); got != want {
		t.Fatalf("resumed render differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	snap := tr.Registry().Snapshot()
	if got := snap.Counters["grid.cells.resumed"]; got != 2 {
		t.Fatalf("grid.cells.resumed = %d, want 2", got)
	}
	if got := snap.Counters["grid.cells.run"]; got != 2 {
		t.Fatalf("grid.cells.run = %d, want 2", got)
	}
}

// TestEqualSeedsRunOnce: cells whose treatments resolve to equal seed
// lists share one TGA run. On this world dealiased:none is full and
// dealiased:cooldown is dealiased:online, so one spec of the four for two
// generators runs 2 × 2 generators, not 2 × 4, even at two grid workers
// where equal-seed cells run at once (run with -race). Every cell must
// still read what running it alone, with no memo, gives.
func TestEqualSeedsRunOnce(t *testing.T) {
	sink := &memSink{}
	tr := telemetry.NewTracer(nil, sink)
	const budget = 500
	e := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: budget, workers: 2, Telemetry: tr})
	pairs := [][2]grid.Treatment{
		{TreatmentFull, TreatmentDealiased(alias.ModeNone)},
		{TreatmentDealiased(alias.ModeOnline), TreatmentDealiased(alias.ModeCooldown)},
	}
	spec := grid.Spec{Name: "equal seeds"}
	for _, gen := range []string{"6Tree", "EIP"} {
		for _, pair := range pairs {
			for _, tm := range pair {
				spec.Cells = append(spec.Cells, grid.Cell{Gen: gen, Treatment: tm, Proto: proto.ICMP, Budget: budget, BatchSize: experimentBatchSize})
			}
		}
	}
	rs, err := e.Grid().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range pairs {
		a, err := e.TreatmentSeeds(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.TreatmentSeeds(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("%s and %s resolve to different seeds on this world: nothing to share", pair[0], pair[1])
		}
	}

	runs := 0
	for _, ev := range sink.events {
		if ev.Type == "span_start" && ev.Name == "run" {
			runs++
		}
	}
	snap := tr.Registry().Snapshot()
	if runs != 4 || snap.Counters["experiment.cells.shared_seeds"] != 4 || snap.Counters["grid.cells.run"] != 8 {
		t.Fatalf("%d TGA runs, %d cells shared, %d executed; want 4, 4 and 8",
			runs, snap.Counters["experiment.cells.shared_seeds"], snap.Counters["grid.cells.run"])
	}

	direct := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: budget})
	hits := 0
	for _, c := range spec.Cells {
		seedSet, err := direct.TreatmentSeeds(c.Treatment)
		if err != nil {
			t.Fatal(err)
		}
		r, err := direct.runTGA(context.Background(), c.Gen, seedSet, c.Proto, c.Budget, c.BatchSize)
		if err != nil {
			t.Fatal(err)
		}
		want := grid.CellResult{Outcome: r.Outcome, Hits: r.Run.Hits}
		if got := rs.Of(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s: %+v, %d hits; run alone: %+v, %d hits", c.ID(), got.Outcome, len(got.Hits), want.Outcome, len(want.Hits))
		}
		hits += len(want.Hits)
	}
	if hits == 0 {
		t.Fatal("no cell found a hit: nothing was compared")
	}
}

// TestDigestCollisionRunsUncached: a run memoised under a cell's key but
// made on other seeds, as a digest collision would leave it, is not
// handed to the cell; the cell runs on its own seeds, uncached.
func TestDigestCollisionRunsUncached(t *testing.T) {
	const budget = 300
	e := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: budget})
	ctx := context.Background()
	c := grid.Cell{Gen: "6Tree", Treatment: TreatmentFull, Proto: proto.ICMP, Budget: budget, BatchSize: experimentBatchSize}
	seedSet := e.Full.SortedSlice()
	other := slices.Clone(seedSet)
	other[0] = other[len(other)-1]
	k := runKey{c.Gen, len(seedSet), e.Full.Digest(), c.Proto, c.Budget, c.BatchSize}
	if _, _, err := e.runs.Do(ctx, k, func() (seedRun, error) {
		return seedRun{seeds: other, res: grid.CellResult{Outcome: metrics.Outcome{Hits: -1}}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := e.runCell(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.runTGA(ctx, c.Gen, seedSet, c.Proto, c.Budget, c.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if want := (grid.CellResult{Outcome: r.Outcome, Hits: r.Run.Hits}); !reflect.DeepEqual(got, want) {
		t.Fatalf("cell read %+v, want its own run's %+v", got.Outcome, want.Outcome)
	}
}

// TestWarmTreatmentSeedsAllocatesNothing: once a treatment is resolved,
// every kind of it comes back from its cache — no clone, no re-restrict,
// no re-sort — and so does the digest a cell's run key reads.
func TestWarmTreatmentSeedsAllocatesNothing(t *testing.T) {
	e := testEnv(t)
	ts := []grid.Treatment{TreatmentFull, TreatmentAllActive}
	for _, m := range alias.Modes {
		ts = append(ts, TreatmentDealiased(m))
	}
	for _, p := range proto.All {
		ts = append(ts, TreatmentPortActive(p))
	}
	for _, src := range seeds.AllSources {
		ts = append(ts, treatmentSourceActive(src))
	}
	for _, tm := range ts {
		first, err := e.TreatmentSeeds(tm)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			// Both calls succeeded cold; a warm one reads the same caches.
			got, _ := e.TreatmentSeeds(tm)
			if len(got) != len(first) || (len(got) > 0 && &got[0] != &first[0]) {
				t.Fatalf("%s: a warm call returned another slice", tm)
			}
			ds, _ := e.treatment(tm)
			ds.Digest()
		})
		if n != 0 {
			t.Errorf("warm TreatmentSeeds(%s) allocates %v times, want 0", tm, n)
		}
	}
}

// TestParseTreatment: every treatment the grid names parses to itself, a
// protocol spelled as the -proto flags spell it is canonicalised, and
// anything else is refused.
func TestParseTreatment(t *testing.T) {
	for name := range treatments {
		if got, err := ParseTreatment(string(name)); err != nil || got != name {
			t.Errorf("ParseTreatment(%q) = %q, %v", name, got, err)
		}
	}
	for name, want := range map[string]grid.Treatment{
		"port-active:tcp443": "port-active:TCP443",
		"port-active:icmp":   "port-active:ICMP",
	} {
		if got, err := ParseTreatment(name); err != nil || got != want {
			t.Errorf("ParseTreatment(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "everything", "dealiased:", "dealiased:Joint", "port-active:gopher", string(treatmentScannedPort), "source-active:Nowhere", "full:"} {
		if got, err := ParseTreatment(bad); err == nil {
			t.Errorf("ParseTreatment(%q) = %q, want an error", bad, got)
		}
	}
}
