package ipaddr

import (
	"math/rand"
	"testing"
)

// linearLookup is the definition LPMTable must meet: the index of the
// longest listed prefix containing a, the later entry winning a tie.
func linearLookup(prefixes []Prefix, a Addr) (uint32, bool) {
	best, bestBits := 0, -1
	for i, p := range prefixes {
		if p.Contains(a) && p.Bits() >= bestBits {
			best, bestBits = i, p.Bits()
		}
	}
	return uint32(best), bestBits >= 0
}

// indexValues maps each of n prefixes to its position in the list.
func indexValues(n int) []uint32 {
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = uint32(i)
	}
	return vs
}

// lpmProbe is one lookup a test table must answer: want is the index of
// the prefix that must match addr, or -1 for no route.
type lpmProbe struct {
	addr string
	want int
}

// checkLPM builds a table mapping each prefix to its index and checks
// every probe against it.
func checkLPM(t *testing.T, skipBits int, prefixes []string, probes []lpmProbe) {
	t.Helper()
	ps := make([]Prefix, len(prefixes))
	for i, s := range prefixes {
		ps[i] = MustParsePrefix(s)
	}
	lt := BuildLPM(ps, indexValues(len(ps)), skipBits)
	for _, pr := range probes {
		v, ok := lt.Lookup(MustParse(pr.addr))
		if ok != (pr.want >= 0) || (ok && int(v) != pr.want) {
			t.Errorf("Lookup(%s) = %d, %v; want %d", pr.addr, v, ok, pr.want)
		}
	}
}

func TestLPMLongestMatch(t *testing.T) {
	checkLPM(t, 0, []string{"2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:2::/64"}, []lpmProbe{
		{"2001:db8:1:2::99", 2}, {"2001:db8:1:3::99", 1}, {"2001:db8:9::1", 0}, {"2600::1", -1},
	})
}

func TestTrieLookupLongest(t *testing.T) {
	checkLPM(t, 0, []string{"2001:db8::/32", "2001:db8:1::/48"}, []lpmProbe{
		{"2001:db8:1::5", 1}, {"2001:db8:2::5", 0}, {"2600::1", -1},
	})
}

func TestTrieDefaultRoute(t *testing.T) {
	checkLPM(t, 0, []string{"::/0"}, []lpmProbe{{"abcd::1", 0}, {"::", 0}, {"ffff::1", 0}})
}

func TestLPMNonNybblePrefixes(t *testing.T) {
	// /33 and /35 exercise the partial-nybble span writes.
	checkLPM(t, 0, []string{
		"2001:db8::/33",      // 0: covers 2001:db8:0000-7fff
		"2001:db8:8000::/33", // 1: covers 2001:db8:8000-ffff
		"2001:db8:2000::/35", // 2: covers 2001:db8:2000-3fff inside 0
	}, []lpmProbe{
		{"2001:db8:0001::1", 0}, {"2001:db8:7fff::1", 0}, {"2001:db8:8000::1", 1}, {"2001:db8:ffff::1", 1},
		{"2001:db8:2abc::1", 2}, {"2001:db8:3fff::1", 2}, {"2001:db8:4000::1", 0},
	})
}

func TestLPMSkipBits(t *testing.T) {
	// All prefixes inside 2001:db8::/32; skipBits=32 skips eight nybbles.
	checkLPM(t, 32, []string{"2001:db8::/32", "2001:db8:aa00::/40", "2001:db8:aa00:bb00::/56"}, []lpmProbe{
		{"2001:db8:1::1", 0}, {"2001:db8:aaff::1", 1}, {"2001:db8:aa00:bb42::1", 2},
	})
}

func TestLPMDefaultRoute(t *testing.T) {
	checkLPM(t, 0, []string{"::/0", "2001:db8::/32"}, []lpmProbe{{"abcd::1", 0}, {"2001:db8::1", 1}})
	checkLPM(t, 0, nil, []lpmProbe{{"::", -1}, {"abcd::1", -1}})
}

func TestLPMHostRoute(t *testing.T) {
	checkLPM(t, 0, []string{"2001:db8::/32", "2001:db8::7/128"}, []lpmProbe{{"2001:db8::7", 1}, {"2001:db8::8", 0}})
}

func TestLPMRepeatedPrefixLaterWins(t *testing.T) {
	checkLPM(t, 0, []string{"2001:db8::/32", "2001:db8:1::/48", "2001:db8::/32"}, []lpmProbe{
		{"2001:db8::1", 2}, {"2001:db8:1::1", 1},
	})
}

func TestLPMNilValuesIsMembership(t *testing.T) {
	lt := BuildLPM([]Prefix{MustParsePrefix("2001:db8::/32"), MustParsePrefix("fe80::/10")}, nil, 0)
	for addr, want := range map[string]bool{"2001:db8::1": true, "fe80::1": true, "2600::1": false} {
		if v, ok := lt.Lookup(MustParse(addr)); ok != want || v != 0 {
			t.Errorf("Lookup(%s) = %d, %v; want 0, %v", addr, v, ok, want)
		}
	}
}

// randomLPMInput draws n prefixes and probe addresses under base/skipBits,
// so every prefix and probe shares the table's skipped bits. Lengths span
// /0 to /128, and one prefix in ten repeats an earlier one.
func randomLPMInput(rng *rand.Rand, base Prefix, n int) (prefixes []Prefix, probes []Addr) {
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(10) == 0 {
			prefixes = append(prefixes, prefixes[rng.Intn(i)])
			continue
		}
		prefixes = append(prefixes, PrefixFrom(base.RandomWithin(rng), rng.Intn(129)))
	}
	for i := 0; i < 1000; i++ {
		if rng.Intn(2) == 0 {
			// A random point inside a random listed prefix, kept under base.
			p := prefixes[rng.Intn(len(prefixes))]
			if p.Bits() < base.Bits() {
				p = base
			}
			probes = append(probes, p.RandomWithin(rng))
		} else {
			probes = append(probes, base.RandomWithin(rng))
		}
	}
	return prefixes, probes
}

// TestLPMMatchesTrieRandomized is the contract test: for random prefix
// lists and random probes, the stride-4 trie BuildLPM makes agrees with
// linearLookup, with no skipped bits and with the world's per-AS skip of 28.
func TestLPMMatchesTrieRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, skipBits := range []int{0, 28} {
		for round := 0; round < 5; round++ {
			base := PrefixFrom(AddrFrom64s(rng.Uint64(), rng.Uint64()), skipBits)
			prefixes, probes := randomLPMInput(rng, base, 150)
			lt := BuildLPM(prefixes, indexValues(len(prefixes)), skipBits)
			for _, a := range probes {
				wantV, wantOK := linearLookup(prefixes, a)
				if gotV, gotOK := lt.Lookup(a); gotOK != wantOK || gotV != wantV {
					t.Fatalf("skip %d round %d addr %v: lpm = %d, %v; linear = %d, %v",
						skipBits, round, a, gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
}

// TestTrieRandomizedAgainstLinearScan checks one table of 200 random
// prefixes of /8 to /120, none repeated, against linearLookup, half its
// probes inside a listed prefix and half anywhere.
func TestTrieRandomizedAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefixes := make([]Prefix, 200)
	for i := range prefixes {
		prefixes[i] = PrefixFrom(AddrFrom64s(rng.Uint64(), rng.Uint64()), 8+rng.Intn(113))
	}
	lt := BuildLPM(prefixes, indexValues(len(prefixes)), 0)
	for i := 0; i < 500; i++ {
		a := AddrFrom64s(rng.Uint64(), rng.Uint64())
		if rng.Intn(2) == 0 {
			a = prefixes[rng.Intn(len(prefixes))].RandomWithin(rng)
		}
		wantV, wantOK := linearLookup(prefixes, a)
		if gotV, gotOK := lt.Lookup(a); gotOK != wantOK || gotV != wantV {
			t.Fatalf("addr %v: lpm = %d, %v; linear = %d, %v", a, gotV, gotOK, wantV, wantOK)
		}
	}
}

func TestLPMLookupDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefixes, probes := randomLPMInput(rng, Prefix{}, 100)
	lt := BuildLPM(prefixes, indexValues(len(prefixes)), 0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		lt.Lookup(probes[i%len(probes)])
		i++
	}); n != 0 {
		t.Fatalf("Lookup allocates %v times per call", n)
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prefixes := make([]Prefix, 10000)
	for i := range prefixes {
		prefixes[i] = PrefixFrom(AddrFrom64s(rng.Uint64(), rng.Uint64()), 32+rng.Intn(33))
	}
	lt := BuildLPM(prefixes, indexValues(len(prefixes)), 0)
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = AddrFrom64s(rng.Uint64(), rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Lookup(addrs[i&1023])
	}
}
