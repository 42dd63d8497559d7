//go:build !race && !poison

package tga

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"seedscan/internal/memo"
)

// TestWarmMineTreeAllocatesItsModel pins a warm mineTree of 20,000 seeds,
// with each heuristic: it allocates its model — the header, the leaf
// array and the one array of the input's seeds the leaves share — plus a
// page (8 KiB) for each of the two arrays, which the runtime rounds up to
// whole pages, and 1 KiB. Partition buffers or leaf windows allocated per
// build, or leaves that keep windows of the partition buffers, cost at
// least another 320 KiB and fail the pin. A build's bytes are the least
// of five (leastBytes).
func TestWarmMineTreeAllocatesItsModel(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seeds := synthSeeds(t, 20000)
	const slack = 2*8<<10 + 1<<10
	for _, h := range heuristics {
		// Each build takes the oldest scratch off the list and puts it
		// back last, so one build per entry warms them all.
		for i := 0; i <= memo.FreeListLen; i++ {
			mineTree(seeds, MinLeaf, h.fn)
		}
		var m *TreeModel
		got := leastBytes(func() { m = mineTree(seeds, MinLeaf, h.fn) })
		model := uint64(unsafe.Sizeof(TreeModel{})) + uint64(len(m.LeafModels))*uint64(unsafe.Sizeof(TreeLeafModel{})) +
			uint64(len(seeds))*uint64(unsafe.Sizeof(seeds[0]))
		if got > model+slack {
			t.Errorf("%s: a warm mineTree of %d seeds (%d leaves) allocates %d bytes, want at most its %d-byte model and %d",
				h.name, len(seeds), len(m.LeafModels), got, model, slack)
		}
	}
}

// leastBytes reports the fewest bytes any of five calls of fn allocates,
// so that an allocation elsewhere in the process during one call does not
// count.
func leastBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
