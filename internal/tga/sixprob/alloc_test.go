//go:build !race

package sixprob

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// The race detector's instrumentation allocates, so the pins on what a
// model and a run's frontier cost only hold without it.

// allocated reports what f allocates per call, in bytes and in heap
// objects: the least of runs calls, each measured on its own, after one
// warm-up call. MemStats counts the whole process, so an allocation by
// another goroutine lands in whichever call it overlaps; such a stray
// only ever adds, while what f itself allocates shows in every call.
// Collection is off while it counts: a collection can add a stray
// runtime allocation.
func allocated(runs int, f func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	bytes, objects = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		objects = min(objects, float64(after.Mallocs-before.Mallocs))
	}
	return bytes, objects
}

// TestBuildModelAllocations pins the trie to one flat allocation: at most
// 32 B per seed beside a small fixed cost (the frequency tables and their
// sorts), in a number of allocations that does not grow with the seeds. A
// trie of pointer nodes with byte tails costs over 100 B and three
// allocations per seed.
func TestBuildModelAllocations(t *testing.T) {
	var objects [2]float64
	for i, n := range []int{1000, 40000} {
		seeds := testSeeds(n)
		bytes, objs := allocated(5, func() {
			if _, err := New().BuildModel(seeds); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 32*float64(n) + 16<<10; bytes > limit {
			t.Errorf("BuildModel over %d seeds allocates %.0f B (%.1f B per seed), want at most %.0f", n, bytes, bytes/float64(n), limit)
		}
		objects[i] = objs
	}
	if objects[0] != objects[1] || objects[1] > 100 {
		t.Errorf("BuildModel allocates %v times over 1000 seeds and %v over 40000, want the same and at most 100", objects[0], objects[1])
	}
}

// TestRunFrontierAllocations pins a run's frontier — slab, heap and free
// list, allocated once at InitFromModel — under 64 B per entry of the
// default beam. The allowance is for what 12,288 draws keep beside it, the
// emitted set and the returned batches (about 1 MB), less part of the 4 B
// per entry by which the frontier comes in under 64 B: a frontier of 64 B
// per entry, as an index heap over full candidates costs, does not fit.
func TestRunFrontierAllocations(t *testing.T) {
	seeds := testSeeds(40000)
	m, err := New().BuildModel(seeds)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 12288
	bytes, _ := allocated(3, func() {
		g := New()
		if err := g.InitFromModel(m, seeds); err != nil {
			t.Fatal(err)
		}
		for drawn := 0; drawn < draws; {
			got := g.NextBatch(4096)
			if len(got) == 0 {
				t.Fatalf("exhausted after %d draws", drawn)
			}
			drawn += len(got)
		}
	})
	if limit := 64*float64(defaultBeam+1) + 896<<10; bytes > limit {
		t.Errorf("InitFromModel and %d draws allocate %.0f B, want at most %.0f", draws, bytes, limit)
	}
}

// minedModel hands every run the same mined model.
type minedModel struct{ m tga.Model }

func (s minedModel) GetOrBuild(context.Context, tga.ModelBuilder, []ipaddr.Addr) (tga.Model, error) {
	return s.m, nil
}

// TestWarmDriverRunReusesFrontier pins a 6Prob run through the driver,
// after a warm-up run and two collections, under the bytes of one default
// frontier (3.9 MB): the driver takes its set back at the end of a run, the
// generator returns its frontier to the free list then, and the next run's
// InitFromModel takes it from there. A frontier allocated per run, or a
// free list a collection empties, does not fit: the run's other state
// (about 200 KB) puts it over. 64 B per entry of the default beam would
// let it in.
func TestWarmDriverRunReusesFrontier(t *testing.T) {
	seeds := testSeeds(40000)
	m, err := New().BuildModel(seeds)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12288
	cfg := tga.RunConfig{Budget: budget, BatchSize: 4096, Models: minedModel{m}}
	bytes, _ := allocated(3, func() {
		runtime.GC() // twice: a sync.Pool's entries outlive one collection
		runtime.GC()
		res, err := tga.RunContext(context.Background(), New(), seeds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generated != budget {
			t.Fatalf("generated %d of %d", res.Generated, budget)
		}
	})
	perEntry := unsafe.Sizeof(key{}) + unsafe.Sizeof(cand{}) + unsafe.Sizeof(int32(0))
	if limit := float64(perEntry * (defaultBeam + 1)); bytes >= limit {
		t.Errorf("a warm driver run allocates %.0f B, want under one frontier, %.0f", bytes, limit)
	}
}
