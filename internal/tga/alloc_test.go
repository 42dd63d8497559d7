//go:build !race && !poison

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
	var g leafGen
	if n := testing.AllocsPerRun(100, func() { g.start(&masks) }); n != 0 {
		t.Fatalf("starting a leafGen allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
		t.Fatalf("Next allocates %v times within a job, want 0", n)
	}
}

// TestCursorSlabAllocationsConstant: a scheduler starting over a model on
// a warm Scratch — the lent cursor slab, rankings and heap already grown —
// allocates nothing, for 10 leaves or 10,000, and neither does a batch
// that starts enumerators in the slab.
func TestCursorSlabAllocationsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perStart := func(leaves int) (search, expand float64) {
		m := &TreeModel{LeafModels: make([]TreeLeafModel, leaves)}
		for i := range m.LeafModels {
			m.LeafModels[i].Masks = pinnedMasks(byte(i % 16))
			m.LeafModels[i].Seeds = make([]ipaddr.Addr, 1+i%3)
		}
		sc := &Scratch{seen: ipaddr.NewSetCap(1 << 12)}
		s := NewLeafSearch(m, func(a, b *Cursor) bool { return a.Seeds > b.Seeds }, func(*Cursor, int) {})
		e := NewExpander(leaves, func(i int) (*[ipaddr.NybbleCount]ValueMask, float64, int) {
			return &m.LeafModels[i].Masks, float64(1 + i%3), 8
		})
		pick := func(live int) int { return live - 1 }
		dst := make([]ipaddr.Addr, 0, 64)
		search = testing.AllocsPerRun(10, func() {
			sc.seen.Reset(1 << 12)
			s.Lend(sc)
			s.AppendBatch(dst, 64, 32, 1, pick)
		})
		expand = testing.AllocsPerRun(10, func() {
			sc.seen.Reset(1 << 12)
			e.Lend(sc)
			e.AppendBatch(dst, 64, 8)
		})
		return search, expand
	}
	for _, leaves := range []int{10, 10000} {
		if search, expand := perStart(leaves); search != 0 || expand != 0 {
			t.Fatalf("%d leaves: a warm LeafSearch start and batch allocate %v times, an Expander's %v, want 0", leaves, search, expand)
		}
	}
}
