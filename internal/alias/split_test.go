package alias

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// refSplit is Split as it was before it partitioned in place: the same
// claims and probes, but clean, the offline modes' pending list and the
// /96 list are fresh slices and addrs is only read.
func refSplit(d *Dealiaser, addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	if d.mode == ModeNone || len(addrs) == 0 {
		return addrs, nil
	}
	if d.mode == ModeCooldown {
		return refSplitCooldown(d, addrs)
	}
	clean = make([]ipaddr.Addr, 0, len(addrs))
	pending := addrs
	if d.mode == ModeOffline || d.mode == ModeJoint {
		pending = make([]ipaddr.Addr, 0, len(addrs))
		for _, a := range addrs {
			if d.offline != nil && d.offline.Contains(a) {
				aliased = append(aliased, a)
			} else {
				pending = append(pending, a)
			}
		}
		if d.mode == ModeOffline {
			return append(clean, pending...), aliased
		}
	}
	prefixes := make([]ipaddr.Prefix, len(pending))
	for i, a := range pending {
		prefixes[i] = ipaddr.PrefixFrom(a, AliasPrefixBits)
	}
	d.confirm(distinctPrefixes(prefixes))
	d.mu.Lock()
	for _, a := range pending {
		if d.claims[ipaddr.PrefixFrom(a, AliasPrefixBits)] == isAliased {
			aliased = append(aliased, a)
		} else {
			clean = append(clean, a)
		}
	}
	d.mu.Unlock()
	return clean, aliased
}

// refSplitCooldown is refSplit's ModeCooldown path.
func refSplitCooldown(d *Dealiaser, addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	clean = make([]ipaddr.Addr, 0, len(addrs))
	d.mu.Lock()
	for _, a := range addrs {
		d.density[ipaddr.PrefixFrom(a, cooldownAggrBits)]++
	}
	var hot []ipaddr.Prefix
	for _, a := range addrs {
		if d.density[ipaddr.PrefixFrom(a, cooldownAggrBits)] >= d.trigger ||
			(d.candidates != nil && d.candidates.Contains(a)) {
			hot = append(hot, ipaddr.PrefixFrom(a, AliasPrefixBits))
		}
	}
	d.mu.Unlock()
	claimed := d.confirm(distinctPrefixes(hot))
	d.mu.Lock()
	newlyCooled := 0
	for _, p := range claimed {
		if d.claims[p] == isAliased {
			newlyCooled++
		}
	}
	for _, a := range addrs {
		if d.claims[ipaddr.PrefixFrom(a, AliasPrefixBits)] == isAliased {
			aliased = append(aliased, a)
		} else {
			clean = append(clean, a)
		}
	}
	d.mu.Unlock()
	d.cCooled.Add(int64(newlyCooled))
	return clean, aliased
}

// splitInputs builds random batches over a fixed address plan. Dense /64s
// (2001:db8:d:i::/64) hold every aliased /96, one in three of their /96s,
// and a batch that takes from one takes at least twice cooldownTrigger
// addresses of it, so under ModeCooldown every aliased address is
// suspicious on first sight. Sparse /64s (2001:db8:5:i::/64) are clean,
// and the offline list names dense /64 0 and sparse /64s 1 and 2, whose
// siblings the cool-down candidate list adds. Batches repeat addresses.
// Whether a prefix is tested therefore never decides an address's side,
// so every mode's partition is the same however concurrent calls
// interleave.
func splitInputs(seed int64, batches int) (prober *countingProber, list *OfflineList, out [][]ipaddr.Addr) {
	dense := func(i, j int) ipaddr.Prefix {
		return ipaddr.PrefixFrom(ipaddr.MustParse(fmt.Sprintf("2001:db8:d:%x::", i)).AddLo(uint64(j)<<32), AliasPrefixBits)
	}
	prober = &countingProber{activeFn: func(a ipaddr.Addr) bool {
		return a.Hi()>>16 == 0x20010db8000d && (a.Lo()>>32)%3 == 0
	}}
	list = NewOfflineList([]ipaddr.Prefix{
		ipaddr.MustParsePrefix("2001:db8:d:0::/64"),
		ipaddr.MustParsePrefix("2001:db8:5:1::/64"),
		ipaddr.MustParsePrefix("2001:db8:5:2::/64"),
	})
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < batches; b++ {
		var batch []ipaddr.Addr
		for k := rng.Intn(3); k > 0; k-- {
			i := rng.Intn(6)
			for n := 2*cooldownTrigger + rng.Intn(8); n > 0; n-- {
				batch = append(batch, dense(i, rng.Intn(9)).Addr().AddLo(uint64(rng.Intn(4))))
			}
		}
		for n := rng.Intn(40); n > 0; n-- {
			hi := 0x20010db8_0005_0000 | uint64(rng.Intn(16))
			batch = append(batch, ipaddr.AddrFrom64s(hi, uint64(rng.Intn(5))<<32|uint64(rng.Intn(3))))
		}
		for n := rng.Intn(6); n > 0 && len(batch) > 0; n-- {
			batch = append(batch, batch[rng.Intn(len(batch))])
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		out = append(out, batch)
	}
	return prober, list, out
}

// TestSplitMatchesReference holds the in-place Split to refSplit, the
// copy-based partition it replaced: equal (clean, aliased), in order, for
// every mode, batch after batch on one dealiaser and, over the same
// batches a second time, with every verdict cached. Both dealiasers end
// with the same probe and test counts.
func TestSplitMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		prober, list, batches := splitInputs(seed, 40)
		for _, mode := range Modes {
			got := New(mode, list, prober, proto.ICMP, uint64(seed), nil)
			ref := New(mode, list, prober, proto.ICMP, uint64(seed), nil)
			for pass := 0; pass < 2; pass++ {
				for b, batch := range batches {
					wantClean, wantAliased := refSplit(ref, slices.Clone(batch))
					clean, aliased := got.Split(slices.Clone(batch))
					if !slices.Equal(clean, wantClean) || !slices.Equal(aliased, wantAliased) {
						t.Fatalf("seed %d %v pass %d batch %d: split %d/%d, reference %d/%d",
							seed, mode, pass, b, len(clean), len(aliased), len(wantClean), len(wantAliased))
					}
				}
			}
			if got.ProbesSent() != ref.ProbesSent() || got.PrefixesTested() != ref.PrefixesTested() {
				t.Fatalf("seed %d %v: %d probes over %d /96s, reference %d over %d", seed, mode,
					got.ProbesSent(), got.PrefixesTested(), ref.ProbesSent(), ref.PrefixesTested())
			}
		}
	}
}

// TestConcurrentSplitMatchesReference splits the batches from four
// goroutines sharing one cold dealiaser, each in its own order, and holds
// every partition to refSplit's on a dealiaser of its own. Outside the
// cool-down mode, whose tests depend on what it has seen, each /96 is
// tested once, as often as the reference tests it. Run under -race.
func TestConcurrentSplitMatchesReference(t *testing.T) {
	prober, list, batches := splitInputs(7, 48)
	for _, mode := range Modes {
		ref := New(mode, list, prober, proto.ICMP, 3, nil)
		want := make([][2][]ipaddr.Addr, len(batches))
		for b, batch := range batches {
			want[b][0], want[b][1] = refSplit(ref, slices.Clone(batch))
		}
		d := New(mode, list, prober, proto.ICMP, 3, nil)
		const goroutines = 4
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range batches {
					b := (k*(2*g+1) + g) % len(batches)
					clean, aliased := d.Split(slices.Clone(batches[b]))
					if !slices.Equal(clean, want[b][0]) || !slices.Equal(aliased, want[b][1]) {
						t.Errorf("%v goroutine %d batch %d: split %d/%d, reference %d/%d", mode, g, b,
							len(clean), len(aliased), len(want[b][0]), len(want[b][1]))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if mode != ModeCooldown && d.PrefixesTested() != ref.PrefixesTested() {
			t.Errorf("%v: %d /96s tested, reference %d (each exactly once)", mode, d.PrefixesTested(), ref.PrefixesTested())
		}
	}
}

// TestSplitPartitionsInPlace pins where the partitions live: clean is
// the front of the input's storage and aliased, when empty, is nil.
func TestSplitPartitionsInPlace(t *testing.T) {
	prober, list, batches := splitInputs(11, 8)
	for _, mode := range Modes {
		d := New(mode, list, prober, proto.ICMP, 5, nil)
		for _, batch := range batches {
			in := slices.Clone(batch)
			clean, aliased := d.Split(in)
			if len(clean) > 0 && &clean[0] != &in[0] {
				t.Fatalf("%v: clean is not the front of the input", mode)
			}
			if len(aliased) == 0 && aliased != nil {
				t.Fatalf("%v: an empty aliased partition was allocated", mode)
			}
		}
	}
}

// seedSplitInput is a seed-set-sized input, far past smallSplit: 20,000
// addresses, 16 in each of 1,250 /64s of 2001:db8:d::/48, four in each of
// a /64's first four /96s, of which the prober finds the first and last
// aliased. The offline list names the first 256 /64s.
func seedSplitInput() (addrs []ipaddr.Addr, prober *countingProber, list *OfflineList) {
	for i := uint64(0); i < 20000; i++ {
		addrs = append(addrs, ipaddr.AddrFrom64s(0x20010db8_000d_0000|i/16, (i/4%4)<<32|(i%4+1)))
	}
	prober = &countingProber{activeFn: func(a ipaddr.Addr) bool { return (a.Lo()>>32)%3 == 0 }}
	list = NewOfflineList([]ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8:d::/56")})
	return addrs, prober, list
}

// TestSeedSizedSplitMatchesReference holds Split to refSplit on inputs
// past smallSplit, whose verdicts and /96 lists Split keeps off the
// stack: seedSplitInput shuffled, and splitInputs' batches joined into
// one, each split cold and then warm, in every mode.
func TestSeedSizedSplitMatchesReference(t *testing.T) {
	seedAddrs, seedProber, seedList := seedSplitInput()
	rand.New(rand.NewSource(3)).Shuffle(len(seedAddrs), func(i, j int) { seedAddrs[i], seedAddrs[j] = seedAddrs[j], seedAddrs[i] })
	prober, list, batches := splitInputs(5, 120)
	joined := slices.Concat(batches...)
	if len(joined) <= smallSplit {
		t.Fatalf("joined batches hold %d addresses, want more than %d", len(joined), smallSplit)
	}
	for _, in := range []struct {
		addrs  []ipaddr.Addr
		prober *countingProber
		list   *OfflineList
	}{{seedAddrs, seedProber, seedList}, {joined, prober, list}} {
		for _, mode := range Modes {
			got := New(mode, in.list, in.prober, proto.ICMP, 1, nil)
			ref := New(mode, in.list, in.prober, proto.ICMP, 1, nil)
			for pass := 0; pass < 2; pass++ {
				wantClean, wantAliased := refSplit(ref, slices.Clone(in.addrs))
				clean, aliased := got.Split(slices.Clone(in.addrs))
				if !slices.Equal(clean, wantClean) || !slices.Equal(aliased, wantAliased) || cap(aliased) != len(aliased) {
					t.Fatalf("%d addresses, %v pass %d: split %d/%d (aliased capacity %d), reference %d/%d",
						len(in.addrs), mode, pass, len(clean), len(aliased), cap(aliased), len(wantClean), len(wantAliased))
				}
			}
			if got.ProbesSent() != ref.ProbesSent() || got.PrefixesTested() != ref.PrefixesTested() {
				t.Fatalf("%d addresses, %v: %d probes over %d /96s, reference %d over %d", len(in.addrs), mode,
					got.ProbesSent(), got.PrefixesTested(), ref.ProbesSent(), ref.PrefixesTested())
			}
		}
	}
}
