//go:build !race && !poison

package sixgraph

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"seedscan/internal/memo"
)

// TestWarmDeriveAllocatesItsClusters pins a warm Derive of a tree of
// about 12,000 leaves: it allocates its model — the header and the
// clusters — plus a page (8 KiB) for the cluster array's rounding and
// 1 KiB. Rows, union-find or slots allocated per call cost another 80
// bytes a leaf and fail the pin.
func TestWarmDeriveAllocatesItsClusters(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tm := randomTree(t, rand.New(rand.NewSource(4)), 20000)
	// Each call takes the oldest scratch off the list and puts it back
	// last, so one call per entry warms them all.
	for i := 0; i <= memo.FreeListLen; i++ {
		derive(t, tm, 2)
	}
	var m *model
	got := uint64(math.MaxUint64) // the least of five calls
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		m = derive(t, tm, 2)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	const slack = 8<<10 + 1<<10
	want := uint64(unsafe.Sizeof(model{})) + uint64(len(m.Clusters))*uint64(unsafe.Sizeof(clusterModel{}))
	if got > want+slack {
		t.Errorf("a warm Derive of %d leaves (%d clusters) allocates %d bytes, want at most its %d-byte model and %d",
			len(tm.LeafModels), len(m.Clusters), got, want, slack)
	}
}
