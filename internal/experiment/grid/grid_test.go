package grid

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
)

func cell(gen string, t Treatment, p proto.Protocol, budget int) Cell {
	return Cell{Gen: gen, Treatment: t, Proto: p, Budget: budget, BatchSize: 1024}
}

func addr(b byte) ipaddr.Addr {
	var a [16]byte
	a[0], a[15] = 0x20, b
	return ipaddr.AddrFrom16(a)
}

func TestCellIdentity(t *testing.T) {
	a := cell("6Tree", "full", proto.ICMP, 1000)
	b := cell("6Tree", "full", proto.ICMP, 1000)
	if a.ID() != b.ID() {
		t.Fatalf("equal cells, different IDs: %q vs %q", a.ID(), b.ID())
	}
	variants := []Cell{
		cell("DET", "full", proto.ICMP, 1000),
		cell("6Tree", "all-active", proto.ICMP, 1000),
		cell("6Tree", "full", proto.TCP80, 1000),
		cell("6Tree", "full", proto.ICMP, 2000),
		{Gen: "6Tree", Treatment: "full", Proto: proto.ICMP, Budget: 1000, BatchSize: 512},
	}
	for _, v := range variants {
		if v.ID() == a.ID() {
			t.Fatalf("variant %+v collides with %+v", v, a)
		}
	}
	if a.Key("fp1") == a.Key("fp2") {
		t.Fatal("different fingerprints must give different keys")
	}
	if a.Key("fp1") != "fp1/"+a.ID() {
		t.Fatalf("key = %q", a.Key("fp1"))
	}
}

func TestPlanDedupsAcrossSpecs(t *testing.T) {
	shared := cell("6Tree", "all-active", proto.ICMP, 1000)
	s1 := Spec{Name: "A", Cells: []Cell{shared, cell("DET", "full", proto.ICMP, 1000), shared}}
	s2 := Spec{Name: "B", Cells: []Cell{shared, cell("EIP", "full", proto.ICMP, 1000)}}
	plan := Plan(s1, s2)
	if len(plan) != 3 {
		t.Fatalf("plan = %d cells, want 3", len(plan))
	}
	if plan[0].Cell.ID() != shared.ID() {
		t.Fatalf("plan not first-seen ordered: %q first", plan[0].Cell.ID())
	}
	if got := plan[0].Specs; len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("shared cell specs = %v", got)
	}
	if got := plan[1].Specs; len(got) != 1 || got[0] != "A" {
		t.Fatalf("A-only cell specs = %v", got)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	c := cell("6Tree", "full", proto.ICMP, 100)
	r := CellResult{Outcome: metrics.Outcome{Hits: 7, ASes: 3}, Hits: []ipaddr.Addr{addr(1)}}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store hit")
	}
	if err := s.Put("k", c, r); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || got.Outcome.Hits != 7 || len(got.Hits) != 1 || got.Hits[0] != addr(1) {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	if s.len() != 1 {
		t.Fatalf("len = %d", s.len())
	}
}

func TestJSONLStoreRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := cell("6Tree", "full", proto.ICMP, 100)
	c2 := cell("DET", "all-active", proto.TCP80, 200)
	r1 := CellResult{Outcome: metrics.Outcome{Hits: 1}, Hits: []ipaddr.Addr{addr(1), addr(2)}}
	r2 := CellResult{Outcome: metrics.Outcome{Hits: 2, Aliases: 9}}
	if err := s.Put(c1.Key("fp"), c1, r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c2.Key("fp"), c2, r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"fp/torn","outc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("replayed %d records, want 2", s2.Len())
	}
	got, ok := s2.Get(c1.Key("fp"))
	if !ok || got.Outcome.Hits != 1 || len(got.Hits) != 2 || got.Hits[1] != addr(2) {
		t.Fatalf("c1 after replay: ok=%v got=%+v", ok, got)
	}
	if _, ok := s2.Get("fp/torn"); ok {
		t.Fatal("torn record must not replay")
	}
	// The reopened store must still accept appends past the torn tail.
	c3 := cell("EIP", "full", proto.UDP53, 300)
	if err := s2.Put(c3.Key("fp"), c3, CellResult{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(c3.Key("fp")); !ok {
		t.Fatal("appended record missing")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and the next open must see it: the append starts on its own line,
	// not glued onto the torn fragment (which would hide it and everything
	// written after it).
	s3, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Fatalf("third open replayed %d records, want all 3 complete ones", s3.Len())
	}
	if _, ok := s3.Get(c3.Key("fp")); !ok {
		t.Fatal("record appended after the torn tail did not survive a reopen")
	}
}

// countingEngine builds an engine whose Exec counts per-cell executions.
func countingEngine(store Store, tr *telemetry.Tracer) (*Engine, *sync.Map, *atomic.Int64) {
	var perCell sync.Map
	var total atomic.Int64
	e := NewEngine(Config{
		Fingerprint: "fp",
		Store:       store,
		Workers:     4,
		Telemetry:   tr,
		Exec: func(ctx context.Context, c Cell) (CellResult, error) {
			total.Add(1)
			n, _ := perCell.LoadOrStore(c.ID(), new(atomic.Int64))
			n.(*atomic.Int64).Add(1)
			return CellResult{Outcome: metrics.Outcome{Hits: c.Budget}}, nil
		},
	})
	return e, &perCell, &total
}

func TestEngineDedupsWithinAndAcrossSpecs(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	e, perCell, total := countingEngine(nil, tr)
	shared := cell("6Tree", "all-active", proto.ICMP, 10)
	s1 := Spec{Name: "A", Cells: []Cell{shared, shared, cell("DET", "full", proto.ICMP, 10)}}
	s2 := Spec{Name: "B", Cells: []Cell{shared, cell("EIP", "full", proto.ICMP, 10)}}

	var wg sync.WaitGroup
	for _, s := range []Spec{s1, s2} {
		wg.Add(1)
		go func(s Spec) {
			defer wg.Done()
			rs, err := e.Run(context.Background(), s)
			if err != nil {
				t.Error(err)
				return
			}
			if got := rs.Of(shared); got.Outcome.Hits != 10 {
				t.Errorf("shared cell result = %+v", got)
			}
		}(s)
	}
	wg.Wait()

	if total.Load() != 3 {
		t.Fatalf("executions = %d, want 3 unique cells", total.Load())
	}
	perCell.Range(func(id, n any) bool {
		if n.(*atomic.Int64).Load() != 1 {
			t.Errorf("cell %v executed %d times", id, n.(*atomic.Int64).Load())
		}
		return true
	})
	snap := tr.Registry().Snapshot()
	if snap.Counters["grid.cells.run"] != 3 {
		t.Fatalf("grid.cells.run = %d, want 3", snap.Counters["grid.cells.run"])
	}
	if snap.Counters["grid.cells.planned"] != 5 {
		t.Fatalf("grid.cells.planned = %d, want 5", snap.Counters["grid.cells.planned"])
	}
	// One in-spec duplicate plus the cross-spec share of the shared cell.
	if snap.Counters["grid.cells.deduped"] != 2 {
		t.Fatalf("grid.cells.deduped = %d, want 2", snap.Counters["grid.cells.deduped"])
	}
}

func TestEngineResumesFromStore(t *testing.T) {
	store := NewMemStore()
	spec := Spec{Name: "A", Cells: []Cell{
		cell("6Tree", "full", proto.ICMP, 10),
		cell("DET", "full", proto.ICMP, 20),
	}}

	tr1 := telemetry.NewTracer(nil)
	e1, _, total1 := countingEngine(store, tr1)
	want, err := e1.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if total1.Load() != 2 || store.len() != 2 {
		t.Fatalf("first run: %d execs, %d stored", total1.Load(), store.len())
	}

	// A fresh engine (new process) with the same store executes nothing.
	tr2 := telemetry.NewTracer(nil)
	e2, _, total2 := countingEngine(store, tr2)
	got, err := e2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if total2.Load() != 0 {
		t.Fatalf("resumed run executed %d cells", total2.Load())
	}
	for _, c := range spec.Cells {
		if got.Of(c).Outcome != want.Of(c).Outcome {
			t.Fatalf("cell %s differs after resume", c.ID())
		}
	}
	snap := tr2.Registry().Snapshot()
	if snap.Counters["grid.cells.resumed"] != 2 || snap.Counters["grid.cells.run"] != 0 {
		t.Fatalf("resumed=%d run=%d", snap.Counters["grid.cells.resumed"], snap.Counters["grid.cells.run"])
	}
}

func TestEngineRetriesFailedCells(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	e := NewEngine(Config{
		Fingerprint: "fp",
		Workers:     1,
		Exec: func(ctx context.Context, c Cell) (CellResult, error) {
			if calls.Add(1) == 1 {
				return CellResult{}, boom
			}
			return CellResult{Outcome: metrics.Outcome{Hits: 1}}, nil
		},
	})
	spec := Spec{Name: "A", Cells: []Cell{cell("6Tree", "full", proto.ICMP, 10)}}
	if _, err := e.Run(context.Background(), spec); !errors.Is(err, boom) {
		t.Fatalf("first run err = %v", err)
	}
	// The failed flight must have been cleared so the cell retries.
	rs, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Of(spec.Cells[0]).Outcome.Hits != 1 {
		t.Fatal("retry did not produce the result")
	}
}

func TestEnginePropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(Config{
		Fingerprint: "fp",
		Workers:     1,
		Exec: func(ctx context.Context, c Cell) (CellResult, error) {
			return CellResult{}, ctx.Err()
		},
	})
	spec := Spec{Name: "A", Cells: []Cell{cell("6Tree", "full", proto.ICMP, 10)}}
	if _, err := e.Run(ctx, spec); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
