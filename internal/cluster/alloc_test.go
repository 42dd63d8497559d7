//go:build !race && !poison

// The race detector makes sync.Pool drop a quarter of what is put back,
// so what a warm pool allocates is measured without it.

package cluster

import (
	"context"
	"runtime"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// TestWarmRunAllocatesItsResults pins a cluster Run's allocation to its
// merged results: on a warm pool, a back-to-back Run of 20k targets plans
// into the coordinator's recycled plan and has its workers scan into
// recycled lease buffers, so it allocates RunResult.Results (24 B a
// target) plus small change (leases, contexts, goroutines, stats
// snapshots). A GC between runs may empty the scanners' worker-state
// pools, so the test keeps the least of three tries.
func TestWarmRunAllocatesItsResults(t *testing.T) {
	w := clusterWorld(t)
	base := ipaddr.MustParse("2001:db8:5ca1::")
	targets := w.NewSampler(6).ActiveHosts(2000, proto.ICMP)
	for i := 0; i < 18000; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	pool := NewLocalPool(4, w.Link(), Config{Secret: testSecret})
	if _, err := pool.Run(context.Background(), targets, proto.ICMP); err != nil {
		t.Fatal(err)
	}

	least, n := uint64(1<<63), 0
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := pool.Run(context.Background(), targets, proto.ICMP)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		n = len(res.Results)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(24*n + 256<<10); least > limit {
		t.Fatalf("warm Run of %d targets allocated %d bytes, want at most %d (results %d + 256 KiB)", n, least, limit, 24*n)
	}
	t.Logf("warm Run of %d targets: %d bytes allocated, %d of them results", n, least, 24*n)
}
