//go:build !race && !poison

package alias

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// TestWarmSplitAllocatesNothing pins Split's warm path for a batch as
// large as the experiments' TGA batches: when every /96 has a verdict and
// none is aliased, the partition happens in the caller's storage, the
// verdicts and the /96 (or cool-down hot) list on the stack and the
// lookups in the claim table, so a call allocates nothing.
func TestWarmSplitAllocatesNothing(t *testing.T) {
	var addrs []ipaddr.Addr
	for i := uint64(0); i < smallSplit; i++ {
		// Four addresses in each /64, in distinct /96s.
		addrs = append(addrs, ipaddr.AddrFrom64s(0x20010db8_0007_0000|i/4, (i%4)<<32|1))
	}
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return false }}
	list := NewOfflineList([]ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8:aaaa::/48")})
	for _, mode := range Modes {
		d := New(mode, list, prober, proto.ICMP, 9, nil)
		buf := slices.Clone(addrs)
		if clean, _ := d.Split(buf); len(clean) != len(addrs) {
			t.Fatalf("%v: %d of %d addresses clean", mode, len(clean), len(addrs))
		}
		tested := d.PrefixesTested()
		if allocs := testing.AllocsPerRun(20, func() { d.Split(buf) }); allocs != 0 {
			t.Errorf("%v: a warm Split allocates %.0f times, want 0", mode, allocs)
		}
		if d.PrefixesTested() != tested {
			t.Errorf("%v: a warm Split tested more /96s", mode)
		}
	}
}

// TestWarmSeedSplitAllocatesItsPartition pins a seed-set-sized Split,
// warm (every /96 has a verdict), in each mode that classifies: it
// allocates the input's verdicts (a byte an address), the /96 list of the
// addresses it tests (all of them under ModeOnline and ModeCooldown,
// where every /64 is dense enough to be hot, the unlisted ones under
// ModeJoint, none under ModeOffline) and the aliased partition at its
// final length, plus a page (8 KiB) for each of those three allocations,
// which the runtime rounds up to whole pages. A partition or /96 list
// grown by append allocates several times its final length and fails the
// pin.
func TestWarmSeedSplitAllocatesItsPartition(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	addrs, prober, list := seedSplitInput()
	nListed := 0
	for _, a := range addrs {
		if list.Contains(a) {
			nListed++
		}
	}
	const slack = 3 * 8 << 10
	prefixBytes := uint64(unsafe.Sizeof(ipaddr.Prefix{}))
	for _, mode := range []Mode{ModeOffline, ModeOnline, ModeJoint, ModeCooldown} {
		d := New(mode, list, prober, proto.ICMP, 9, nil)
		d.Split(slices.Clone(addrs))
		var aliased []ipaddr.Addr
		got := uint64(math.MaxUint64) // the least of five calls
		for i := 0; i < 5; i++ {
			buf := slices.Clone(addrs)
			got = min(got, bytesOf(func() { _, aliased = d.Split(buf) }))
		}
		if len(aliased) == 0 || len(aliased) == len(addrs) {
			t.Fatalf("%v: %d of %d addresses aliased, want some", mode, len(aliased), len(addrs))
		}
		tested := uint64(len(addrs))
		switch mode {
		case ModeOffline:
			tested = 0
		case ModeJoint:
			tested -= uint64(nListed)
		}
		want := uint64(len(addrs)) + prefixBytes*tested + 16*uint64(len(aliased))
		if got > want+slack {
			t.Errorf("%v: a warm Split of %d addresses allocates %d bytes, want at most its %d-byte verdicts, /96 list and aliased partition and %d",
				mode, len(addrs), got, want, slack)
		}
	}
}

// bytesOf reports what fn allocates, in bytes, with collection off.
func bytesOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
