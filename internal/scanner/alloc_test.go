//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back,
// so what a warm scanner allocates is measured without it.

package scanner

import (
	"runtime"
	"testing"

	"seedscan/internal/proto"
	"seedscan/internal/world"
)

// TestScanActiveReusesItsPlan pins ScanActive's allocation to its hits: on
// a warm scanner, a back-to-back call plans and scans 20k targets in the
// recycled scratch, so it allocates the hit list plus small change (the
// shuffle's rand source, the scan's goroutines). A GC between calls may
// empty the pool, so the test keeps the least of three tries.
func TestScanActiveReusesItsPlan(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	targets := append(w.NewSampler(6).ActiveHosts(2000, proto.ICMP), addrRange(18000)...)
	s := New(w.Link(), WithSecret(17))
	s.ScanActive(targets, proto.ICMP)

	least := uint64(1 << 63)
	var hitBytes uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hits := s.ScanActive(targets, proto.ICMP)
		runtime.ReadMemStats(&after)
		hitBytes = uint64(len(hits)) * 16
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if hitBytes == 0 {
		t.Fatal("no hits: the test needs some")
	}
	if limit := hitBytes + 64<<10; least >= limit {
		t.Fatalf("warm ScanActive of %d targets allocated %d bytes, want under %d (hits %d + 64 KiB)", len(targets), least, limit, hitBytes)
	}
	t.Logf("warm ScanActive of %d targets: %d bytes allocated, %d of them hits", len(targets), least, hitBytes)
}

// TestScanActiveReusesItsPlanAfterGC pins that released scratch survives
// garbage collection, as a sync.Pool's does not: after two collections
// (which empty any pool), a back-to-back ScanActive still plans and scans
// 20k targets in the recycled scratch, on its first try. What it may
// allocate besides its hits is the workers' state, which a collection
// does drop, and small change; the plan, results and dedup table it
// reuses are 20k × (16 + 24) bytes and a table at least as large.
func TestScanActiveReusesItsPlanAfterGC(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	targets := append(w.NewSampler(6).ActiveHosts(2000, proto.ICMP), addrRange(18000)...)
	s := New(w.Link(), WithSecret(17))
	s.ScanActive(targets, proto.ICMP)

	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hits := s.ScanActive(targets, proto.ICMP)
	runtime.ReadMemStats(&after)
	hitBytes := uint64(len(hits)) * 16
	if hitBytes == 0 {
		t.Fatal("no hits: the test needs some")
	}
	got := after.TotalAlloc - before.TotalAlloc
	if limit := hitBytes + 256<<10; got >= limit {
		t.Fatalf("ScanActive of %d targets after two GCs allocated %d bytes, want under %d (hits %d + 256 KiB)", len(targets), got, limit, hitBytes)
	}
	t.Logf("ScanActive of %d targets after two GCs: %d bytes allocated, %d of them hits", len(targets), got, hitBytes)
}
