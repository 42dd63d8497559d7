package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
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
	port := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := proto.All[i%len(proto.All)]
			deal[i] = e.dealiasedSeeds(alias.ModeJoint)
			outd[i] = e.OutputDealiaser(p)
			port[i] = e.PortActiveSeeds(p).Len()
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
				t.Fatalf("PortActiveSeeds(%s) disagrees across goroutines", proto.All[i%len(proto.All)])
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
