//go:build !race && !poison

package all_test

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
	"seedscan/internal/tga/entropyip"
	"seedscan/internal/tga/sixgraph"
	"seedscan/internal/tga/sixsense"
)

// The race detector's instrumentation allocates, so the pins on how many
// objects mining a model costs only hold without it.

// objectsPerCall reports the heap objects f allocates per call: the least
// of 5 calls, each measured on its own, after one warm-up call. MemStats
// counts the whole process, so a stray allocation by another goroutine
// only ever adds; collection is off while it counts, as a collection can
// add a stray runtime allocation.
func objectsPerCall(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	objects := math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs))
	}
	return objects
}

// spreadSeeds returns n seeds under one /64 whose last 8 nybbles take 4
// values each, an odd-multiplier permutation of the 4^8 combinations
// apart, so every 2-nybble segment holds its 16 values in the first
// thousand seeds already.
func spreadSeeds(n int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, n)
	for i := range out {
		x := uint64(i) * 40503 % (1 << 16)
		var lo uint64
		for p := 0; p < 8; p++ {
			lo |= (x >> (2 * p) & 3) << (4 * p)
		}
		out[i] = ipaddr.AddrFrom64s(0x20010db8_00000001, lo)
	}
	return tga.CanonicalSeeds(out)
}

// TestEntropyIPBuildModelAllocations: Entropy/IP counts segment values
// under packed keys and makes byte strings only of the values it keeps,
// so over one value set its model costs as many objects for 40,000 seeds
// as for 1,000. A byte string per seed per segment costs 40,000 more per
// segment.
func TestEntropyIPBuildModelAllocations(t *testing.T) {
	var objects [2]float64
	for i, n := range []int{1000, 40000} {
		seeds := spreadSeeds(n)
		objects[i] = objectsPerCall(func() {
			if _, err := entropyip.New().BuildModel(seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
	if objects[0] != objects[1] || objects[1] > 100 {
		t.Errorf("BuildModel allocates %v times over 1000 seeds and %v over 40000, want the same and at most 100", objects[0], objects[1])
	}
}

// armSeeds returns perArm seeds in each of 4 /32 arms. One seed per arm
// reaches 24 (position, previous nybble) contexts; random IIDs over many
// seeds reach most of the 384.
func armSeeds(perArm int) []ipaddr.Addr {
	rng := splitmix(3)
	var out []ipaddr.Addr
	for arm := uint64(0); arm < 4; arm++ {
		for i := 0; i < perArm; i++ {
			out = append(out, ipaddr.AddrFrom64s((0x20010db0+arm)<<32|rng.next()>>32, rng.next()))
		}
	}
	return tga.CanonicalSeeds(out)
}

// TestSixSenseRowsAllocatedOncePerArm: 6Sense sizes each arm's Markov
// rows before training it, so the model costs as many objects whether the
// arms' seeds reach 24 contexts each or hundreds. Rows grown by append
// regrow about ten times an arm at the larger size.
func TestSixSenseRowsAllocatedOncePerArm(t *testing.T) {
	var objects [2]float64
	for i, perArm := range []int{1, 2000} {
		seeds := armSeeds(perArm)
		objects[i] = objectsPerCall(func() {
			if _, err := sixsense.New().BuildModel(seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
	if objects[0] != objects[1] || objects[1] > 4+16 {
		t.Errorf("BuildModel over 4 arms allocates %v times for 1 seed an arm and %v for 2000, want the same and at most 4 rows + 16", objects[0], objects[1])
	}
}

// separateLeaves returns a tree of n leaves in one bucket (equal first 8
// positions), none within 6Graph's merge distance of another: leaf i
// spells its index three times over, so two leaves differ in at least 3
// positions. Every leaf is a cluster of its own.
func separateLeaves(n int) *tga.TreeModel {
	m := &tga.TreeModel{LeafModels: make([]tga.TreeLeafModel, n)}
	for i := range m.LeafModels {
		masks := &m.LeafModels[i].Masks
		for p := range masks {
			masks[p] = 1
		}
		for d := 0; d < 4; d++ {
			v := tga.ValueMask(1) << (i >> (4 * d) & 0xf)
			masks[8+d], masks[16+d], masks[24+d] = v, v, v
		}
	}
	return m
}

// TestSixGraphDeriveAllocations: 6Graph merges leaves into one cluster
// slice of its final length, so deriving 2,000 clusters costs as many
// objects as deriving 10.
func TestSixGraphDeriveAllocations(t *testing.T) {
	var objects [2]float64
	for i, n := range []int{10, 2000} {
		tree := separateLeaves(n)
		g := sixgraph.New()
		m, err := g.Derive(tree)
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(m).Elem().FieldByName("Clusters").Len(); got != n {
			t.Fatalf("%d leaves merged into %d clusters, want one each", n, got)
		}
		objects[i] = objectsPerCall(func() {
			if _, err := g.Derive(tree); err != nil {
				t.Fatal(err)
			}
		})
	}
	if objects[0] != objects[1] || objects[1] > 16 {
		t.Errorf("Derive allocates %v times for 10 clusters and %v for 2000, want the same and at most 16", objects[0], objects[1])
	}
}
