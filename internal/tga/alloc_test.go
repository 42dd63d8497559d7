//go:build !race

package tga

import (
	"runtime/debug"
	"testing"

	"seedscan/internal/ipaddr"
)

// The race detector's instrumentation allocates, so the pins on what the
// pattern core costs per generator and per leaf only hold without it.

func TestLeafGenAllocations(t *testing.T) {
	masks := pinnedMasks(2)
	for i := 24; i < ipaddr.NybbleCount; i++ {
		masks[i] = 0x0f0f // 8 values at 8 positions: a job of 16M addresses
	}
	var g *leafGen
	if n := testing.AllocsPerRun(100, func() { g = newLeafGen(masks, nil) }); n > 1 {
		t.Fatalf("NewLeafGen allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
		t.Fatalf("Next allocates %v times within a job, want 0", n)
	}
}

func TestTreeModelLeavesAllocationsConstant(t *testing.T) {
	// A 10,000-leaf slab starts a collection about every call, and on a
	// loaded host the runtime then occasionally counts one stray malloc a
	// call; with collection off, only Leaves' own allocations are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := func(leaves int) float64 {
		m := &TreeModel{LeafModels: make([]TreeLeafModel, leaves)}
		for i := range m.LeafModels {
			m.LeafModels[i].Masks = pinnedMasks(byte(i % 16))
		}
		return testing.AllocsPerRun(10, func() { m.Leaves() })
	}
	small, large := perCall(10), perCall(10000)
	if small != large || small > 2 {
		t.Fatalf("Leaves allocates %v times for 10 leaves and %v for 10000, want the same and at most 2", small, large)
	}
}
