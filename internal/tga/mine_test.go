package tga

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
)

// refMineTree is mineTree as it was before it took its working memory
// from mineScratches: the same partition recursion, over buffers
// allocated for the one build, and leaves whose seeds are windows of
// those buffers. It is kept here as the reference mineTree must agree
// with, leaf for leaf.
func refMineTree(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) *TreeModel {
	n := len(seeds)
	buf := make([]ipaddr.Addr, 2*n)
	b := &treeBuild{minLeaf: max(minLeaf, 1), h: h, part: [2][]ipaddr.Addr{buf[:n:n], buf[n:]}}
	b.mine(seeds, 0, 0)
	m := &TreeModel{LeafModels: make([]TreeLeafModel, len(b.leaves))}
	start := 0
	for i, w := range b.leaves {
		leaf := seeds
		if w.part >= 0 {
			leaf = b.part[w.part][start:w.end:w.end]
		}
		m.LeafModels[i] = TreeLeafModel{Masks: observedMasks(leaf), Seeds: leaf}
		start = int(w.end)
	}
	return m
}

// randomSeeds is a canonical seed set of up to n addresses drawn from rng:
// a few /32s, a few /64s in each, and interface identifiers that are low
// bytes, structured or random, so trees of every depth occur.
func randomSeeds(rng *rand.Rand, n int) []ipaddr.Addr {
	set := ipaddr.NewSetCap(n)
	nets := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		hi := 0x20010000_00000000 | uint64(rng.Intn(nets))<<32 | uint64(rng.Intn(1+rng.Intn(64)))
		var lo uint64
		switch rng.Intn(3) {
		case 0:
			lo = uint64(rng.Intn(256))
		case 1:
			lo = uint64(rng.Intn(16))<<48 | uint64(rng.Intn(4096))
		default:
			lo = rng.Uint64()
		}
		set.Add(ipaddr.AddrFrom64s(hi, lo))
	}
	return set.Sorted()
}

// drainMineScratches empties the mining free list, so the next build
// starts cold and the one after takes the scratch the first gave back.
func drainMineScratches() {
	for {
		if _, ok := mineScratches.Get(); !ok {
			return
		}
	}
}

// sameTree reports why got, a mineTree model, differs from want, a
// refMineTree model over the same seeds: leaf count, masks, seeds and
// their order, or a capacity past a leaf's length. Empty means equal.
func sameTree(got, want *TreeModel) string {
	if len(got.LeafModels) != len(want.LeafModels) {
		return "leaf count"
	}
	for i, l := range got.LeafModels {
		w := want.LeafModels[i]
		switch {
		case l.Masks != w.Masks:
			return "masks"
		case !slices.Equal(l.Seeds, w.Seeds):
			return "seeds"
		case cap(l.Seeds) != cap(w.Seeds):
			return "capacity"
		}
	}
	return ""
}

// cloneTree is a deep copy of m.
func cloneTree(m *TreeModel) *TreeModel {
	c := &TreeModel{LeafModels: slices.Clone(m.LeafModels)}
	for i := range c.LeafModels {
		c.LeafModels[i].Seeds = slices.Clip(slices.Clone(m.LeafModels[i].Seeds))
	}
	return c
}

// TestMineTreeMatchesReference holds mineTree to refMineTree over random
// seed sets, both split heuristics and three leaf sizes, each built cold
// (the free list empty) and then warm (on the scratch the cold build gave
// back, which a larger or smaller set reuses in part).
func TestMineTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 24; trial++ {
		seeds := randomSeeds(rng, 1+rng.Intn(3000))
		for _, h := range heuristics {
			for _, minLeaf := range []int{4, 2, 1} {
				want := refMineTree(seeds, minLeaf, h.fn)
				drainMineScratches()
				for _, temp := range []string{"cold", "warm"} {
					if why := sameTree(mineTree(seeds, minLeaf, h.fn), want); why != "" {
						t.Fatalf("trial %d (%d seeds), %s, minLeaf %d, %s scratch: %s differ from the reference",
							trial, len(seeds), h.name, minLeaf, temp, why)
					}
				}
			}
		}
	}
}

// TestMineTreeKeepsNoScratch mines tree A, then tree B on the scratch A
// gave back, and checks that A is unchanged: its leaves hold their own
// seeds, not windows of the partition buffers B wrote over. B has no
// more seeds than A, so it partitions in A's buffers without growing them.
func TestMineTreeKeepsNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range heuristics {
		drainMineScratches()
		seedsA := randomSeeds(rng, 2000)
		a := mineTree(seedsA, 1, h.fn)
		if len(a.LeafModels) < 2 {
			t.Fatal("root did not split")
		}
		before := cloneTree(a)
		seedsB := randomSeeds(rng, 4000)
		mineTree(seedsB[:min(len(seedsB), len(seedsA))], 1, h.fn)
		if why := sameTree(a, before); why != "" {
			t.Fatalf("%s: mining B changed A's %s", h.name, why)
		}
	}
}

// TestConcurrentMineTreeMatchesReference mines from eight goroutines at
// once, as the experiment grid's cells do through the model cache, each
// its own sequence of seed sets, and holds every tree to refMineTree. Run
// under -race.
func TestConcurrentMineTreeMatchesReference(t *testing.T) {
	const goroutines, builds = 8, 12
	var inputs [goroutines][builds][]ipaddr.Addr
	var want [goroutines][builds][2]*TreeModel
	rng := rand.New(rand.NewSource(3))
	for g := range inputs {
		for b := range inputs[g] {
			inputs[g][b] = randomSeeds(rng, 1+rng.Intn(1500))
			for k, h := range heuristics {
				want[g][b][k] = refMineTree(inputs[g][b], MinLeaf, h.fn)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept []*TreeModel
			for b := range inputs[g] {
				for k, h := range heuristics {
					m := mineTree(inputs[g][b], MinLeaf, h.fn)
					if why := sameTree(m, want[g][b][k]); why != "" {
						t.Errorf("goroutine %d build %d %s: %s differ from the reference", g, b, h.name, why)
						return
					}
					kept = append(kept, m)
				}
			}
			// Every tree this goroutine mined is still its own.
			for i, m := range kept {
				if why := sameTree(m, want[g][i/2][i%2]); why != "" {
					t.Errorf("goroutine %d: tree %d changed its %s after later builds", g, i, why)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
