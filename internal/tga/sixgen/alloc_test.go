//go:build !race && !poison

package sixgen

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"seedscan/internal/memo"
)

// TestWarmBuildModelAllocatesItsClusters pins a warm BuildModel of about
// 20,000 seeds: it allocates its model — the header and the clusters —
// plus a page (8 KiB) for the cluster array's rounding and 1 KiB. A
// cluster allocated on its own, a prefix index, or a clustering buffer
// allocated per build fail the pin.
func TestWarmBuildModelAllocatesItsClusters(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seeds := randomSeeds(rand.New(rand.NewSource(3)), 20000)
	// Each build takes the oldest buffer off the list and puts it back
	// last, so one build per entry warms them all.
	for i := 0; i <= memo.FreeListLen; i++ {
		buildModel(t, New(), seeds)
	}
	var m *model
	got := uint64(math.MaxUint64) // the least of five builds
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		m = buildModel(t, New(), seeds)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	const slack = 8<<10 + 1<<10
	want := uint64(unsafe.Sizeof(model{})) + uint64(len(m.Clusters))*uint64(unsafe.Sizeof(clusterModel{}))
	if got > want+slack {
		t.Errorf("a warm BuildModel of %d seeds (%d clusters) allocates %d bytes, want at most its %d-byte model and %d",
			len(seeds), len(m.Clusters), got, want, slack)
	}
}
