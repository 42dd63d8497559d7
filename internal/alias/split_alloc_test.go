//go:build !race

package alias

import (
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// TestWarmSplitAllocatesNothing pins Split's warm path for a batch as
// large as the experiments' TGA batches: when every /96 has a verdict and
// none is aliased, the partition happens in the caller's storage, the
// /96 list on the stack and the lookups in the claim table, so a call
// allocates nothing. The cool-down mode, which no TGA run of the
// experiments uses, lists its hot /96s in a fresh slice and is left out.
func TestWarmSplitAllocatesNothing(t *testing.T) {
	var addrs []ipaddr.Addr
	for i := uint64(0); i < smallSplit; i++ {
		// Four addresses in each /64, in distinct /96s.
		addrs = append(addrs, ipaddr.AddrFrom64s(0x20010db8_0007_0000|i/4, (i%4)<<32|1))
	}
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return false }}
	list := NewOfflineList([]ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8:aaaa::/48")})
	for _, mode := range Modes {
		if mode == ModeCooldown {
			continue
		}
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
