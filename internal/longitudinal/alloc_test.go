//go:build !race

// What a warm Select allocates is measured without the race detector,
// like the scanner and cluster allocation pins.

package longitudinal

import (
	"math/rand"
	"runtime"
	"testing"

	"seedscan/internal/ipaddr"
)

// TestWarmSelectAllocatesItsTargets pins a warm Select to its Targets: a
// scheduler that already planned once over a 20k-address universe reuses
// its class and volatile scratch, so the next plan allocates the exact-size
// target list (16 B an address) and nothing that grows with the universe.
// The budget truncates the volatile class, so its sort is measured too.
func TestWarmSelectAllocatesItsTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := make([]int, 400)
	for i := range sizes {
		sizes[i] = 50
	}
	universe := runsUniverse(rng, sizes...)
	tr := newTracker(universe, 0.5, 3)
	s := newScheduler(schedulerConfig{Budget: len(universe) / 4})
	for e := 1; e <= 6; e++ {
		targets := s.Select(e, tr).Targets
		var hits []ipaddr.Addr
		for _, a := range targets {
			if rng.Intn(4) > 0 {
				hits = append(hits, a)
			}
		}
		tr.observe(e, targets, hits)
	}

	least, n := uint64(1<<63), 0
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sel := s.Select(7, tr)
		runtime.ReadMemStats(&after)
		if sel.Volatile == 0 || sel.Volatile == len(s.volatile) {
			t.Fatalf("budget did not truncate the volatile class: %d of %d", sel.Volatile, len(s.volatile))
		}
		n = len(sel.Targets)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(16*n + 4<<10); least > limit {
		t.Fatalf("warm Select of %d targets allocated %d bytes, want at most %d (targets %d + 4 KiB)", n, least, limit, 16*n)
	}
	t.Logf("warm Select of %d targets over %d addresses: %d bytes allocated", n, len(universe), least)
}

// TestWarmObserveAllocatesNothing pins a warm observe to no allocation:
// the hits are sorted in the tracker's scratch copy, which an earlier
// epoch with as many hits already sized.
func TestWarmObserveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	universe := runsUniverse(rng, 100, 300, 50, 200)
	tr := newTracker(universe, 0.5, 3)
	var hits []ipaddr.Addr
	for _, a := range universe {
		if rng.Intn(3) > 0 {
			hits = append(hits, a)
		}
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	tr.observe(1, universe, hits)

	e := 1
	if allocs := testing.AllocsPerRun(5, func() {
		e++
		tr.observe(e, universe, hits[:len(hits)-e])
	}); allocs != 0 {
		t.Fatalf("warm observe of %d hits over %d addresses: %v allocations, want 0", len(hits), len(universe), allocs)
	}
}
