//go:build !race && !poison

// What Marshal allocates is measured without the race detector, like the
// scanner, cluster and longitudinal allocation pins.

package hitlistdb

import (
	"runtime"
	"testing"

	"seedscan/internal/ipaddr"
)

// TestMarshalAllocatesImageAndOneCopy pins Marshal on the daemon's
// snapshot shape (one set as Responsive and ICMP, the other protocols
// empty) to the image it returns plus one sorted copy of the set's
// addresses (16 B each): no union set, so nothing else grows with the set.
// Both are large objects, which the runtime allocates in whole 8 KiB
// pages, so each is counted rounded up to a page.
func TestMarshalAllocatesImageAndOneCopy(t *testing.T) {
	const n = 20000
	alive := ipaddr.NewSetCap(n)
	for i := range n {
		alive.Add(ipaddr.AddrFrom64s(0x20010db8_00000000+uint64(i/50), uint64(i%50)*7))
	}
	prefixes := []ipaddr.Prefix{
		ipaddr.PrefixFrom(ipaddr.AddrFrom64s(0x20010db8_00000003, 0), 96),
		ipaddr.PrefixFrom(ipaddr.AddrFrom64s(0x20010db8_00000001, 0), 64),
	}
	snap := daemonSnapshot(alive, prefixes)
	image := len(Marshal(snap, 1))

	least := uint64(1 << 63)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Marshal(snap, 1)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	pages := func(size int) uint64 { return uint64(size+8<<10-1) &^ (8<<10 - 1) }
	if limit := pages(image) + pages(16*n) + 4<<10; least > limit {
		t.Fatalf("Marshal of %d addresses allocated %d bytes, want at most %d (the pages of image %d and addresses %d + 4 KiB)", n, least, limit, image, 16*n)
	}
	t.Logf("Marshal of %d addresses: %d bytes allocated, image %d", n, least, image)
}
