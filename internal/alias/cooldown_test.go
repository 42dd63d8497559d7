package alias

import (
	"fmt"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
)

// denseInput returns addrs dense enough per /64 to cross cooldownTrigger:
// aggs /64s with per addresses each, all in distinct /96s.
func denseInput(prefix string, aggs, per int) []ipaddr.Addr {
	var out []ipaddr.Addr
	for i := 0; i < aggs; i++ {
		agg := ipaddr.MustParse(fmt.Sprintf("%s:%x::", prefix, i))
		for k := 0; k < per; k++ {
			out = append(out, agg.AddLo(uint64(k)<<32))
		}
	}
	return out
}

// TestCooldownDetectsDenseAlias: an aliased region answers every probe;
// once its /64 density crosses the trigger, its /96s are confirmed and
// cooled down.
func TestCooldownDetectsDenseAlias(t *testing.T) {
	w, sc := testWorld(t)
	r := fullRateAlias(t, w)

	// Many addresses inside one /64 of the aliased region (distinct /96s).
	base := ipaddr.PrefixFrom(r.Prefix.Addr(), cooldownAggrBits).Addr()
	var addrs []ipaddr.Addr
	for k := 0; k < 12; k++ {
		addrs = append(addrs, base.AddLo(uint64(k+1)<<32))
	}
	d := New(ModeCooldown, nil, sc, proto.ICMP, 31, nil)
	clean, aliased := d.Split(addrs)
	if len(aliased) != len(addrs) {
		t.Fatalf("aliased = %d, want %d (clean=%d)", len(aliased), len(addrs), len(clean))
	}
	if d.PrefixesTested() == 0 {
		t.Fatal("cool-down never confirmed anything")
	}
}

// TestCooldownSparsePrefixesStayUntested: below the density trigger no
// probes are spent and everything is kept — the detector's whole point.
func TestCooldownSparsePrefixesStayUntested(t *testing.T) {
	var addrs []ipaddr.Addr
	for i := 0; i < cooldownTrigger-1; i++ {
		addrs = append(addrs, ipaddr.MustParse(fmt.Sprintf("2001:db8:1:%x::1", i)))
	}
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return true }}
	d := New(ModeCooldown, nil, prober, proto.ICMP, 7, nil)
	clean, aliased := d.Split(addrs)
	if len(aliased) != 0 || len(clean) != len(addrs) {
		t.Fatalf("sparse input split %d/%d", len(clean), len(aliased))
	}
	if d.ProbesSent() != 0 {
		t.Fatalf("%d probes spent below the trigger", d.ProbesSent())
	}
}

// TestCooldownDeterministic: same seed, same input — byte-identical
// clean/aliased partition across fresh dealiasers.
func TestCooldownDeterministic(t *testing.T) {
	w, _ := testWorld(t)
	list := NewOfflineList(w.AliasedPrefixes()[:1])
	samp := w.NewSampler(55)
	aliasSamp := w.NewSampler(56)
	input := append(samp.Hosts(200), aliasSamp.Aliased(100)...)
	input = new(ipaddr.Deduper).Append(nil, input)

	run := func() (c, a []ipaddr.Addr) {
		_, sc := testWorld(t)
		d := New(ModeCooldown, list, sc, proto.ICMP, 77, nil)
		return d.Split(append([]ipaddr.Addr(nil), input...))
	}
	c1, a1 := run()
	c2, a2 := run()
	if len(c1) != len(c2) || len(a1) != len(a2) {
		t.Fatalf("partition sizes differ: %d/%d vs %d/%d", len(c1), len(a1), len(c2), len(a2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("clean[%d] differs: %v vs %v", i, c1[i], c2[i])
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("aliased[%d] differs: %v vs %v", i, a1[i], a2[i])
		}
	}
}

// TestCooldownCountsVerdictCache: cool-down confirmations claim through
// the same verdict cache as the online test, so its hit and miss counters
// move too — a first sight of a hot /96 is a miss, a second a hit.
func TestCooldownCountsVerdictCache(t *testing.T) {
	addrs := denseInput("2001:db8:ffff", 2, cooldownTrigger)
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return false }}
	reg := telemetry.NewRegistry()
	d := New(ModeCooldown, nil, prober, proto.ICMP, 7, reg)

	want := int64(len(addrs)) // one hot /96 per address
	d.Split(addrs)
	snap := reg.Snapshot()
	if got := snap.Counters["alias.verdict_cache.misses"]; got != want {
		t.Fatalf("misses = %d, want %d", got, want)
	}
	if got := snap.Counters["alias.verdict_cache.hits"]; got != 0 {
		t.Fatalf("hits = %d, want 0", got)
	}

	d.Split(addrs)
	snap = reg.Snapshot()
	if got := snap.Counters["alias.verdict_cache.hits"]; got != want {
		t.Fatalf("hits after resplit = %d, want %d", got, want)
	}
	if got := snap.Counters["alias.verdict_cache.misses"]; got != want {
		t.Fatalf("misses after resplit = %d, want %d", got, want)
	}
}

// TestCooldownEquivalentToOnlineOnCleanInput pins the acceptance
// criterion: on inputs with no aliased addresses the cool-down partition
// is byte-identical to ModeOnline's (everything clean, input order), the
// detector just spends fewer probes getting there.
func TestCooldownEquivalentToOnlineOnCleanInput(t *testing.T) {
	w, _ := testWorld(t)
	samp := w.NewSampler(12)
	var input []ipaddr.Addr
	for _, a := range samp.ActiveHosts(150, proto.ICMP) {
		r, _ := w.RegionOf(a)
		if !r.Aliased && r.RespRate == 1 {
			input = append(input, a)
		}
	}
	if len(input) < 50 {
		t.Fatal("not enough clean actives")
	}

	_, sc1 := testWorld(t)
	on := New(ModeOnline, nil, sc1, proto.ICMP, 99, nil)
	onClean, onAliased := on.Split(append([]ipaddr.Addr(nil), input...))

	_, sc2 := testWorld(t)
	cd := New(ModeCooldown, nil, sc2, proto.ICMP, 99, nil)
	cdClean, cdAliased := cd.Split(append([]ipaddr.Addr(nil), input...))

	// The world's clean regions can in principle trip the 2-of-3 test;
	// this seed's sample must not, or the premise is wrong.
	if len(onAliased) != 0 {
		t.Fatalf("online flagged %d clean addrs; pick another sample", len(onAliased))
	}
	if len(cdAliased) != 0 {
		t.Fatalf("cooldown flagged %d clean addrs", len(cdAliased))
	}
	if len(cdClean) != len(onClean) {
		t.Fatalf("clean sizes differ: %d vs %d", len(cdClean), len(onClean))
	}
	for i := range onClean {
		if cdClean[i] != onClean[i] {
			t.Fatalf("clean[%d] differs: %v vs %v", i, cdClean[i], onClean[i])
		}
	}
	if cd.ProbesSent() > on.ProbesSent() {
		t.Fatalf("cooldown spent %d probes, online only %d", cd.ProbesSent(), on.ProbesSent())
	}
}

// TestCooldownCandidateListShortcut: addresses inside a known-alias
// prefix are suspicious on first sight (trigger 1), no density ramp.
func TestCooldownCandidateListShortcut(t *testing.T) {
	known := []ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8:f00d::/48")}
	list := NewOfflineList(known)
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return true }}
	d := New(ModeCooldown, list, prober, proto.ICMP, 3, nil)

	one := []ipaddr.Addr{ipaddr.MustParse("2001:db8:f00d::1")}
	clean, aliased := d.Split(one)
	if len(aliased) != 1 || len(clean) != 0 {
		t.Fatalf("known-alias addr not cooled down on first sight: %d/%d", len(clean), len(aliased))
	}
	if d.PrefixesTested() != 1 {
		t.Fatalf("PrefixesTested = %d, want 1", d.PrefixesTested())
	}
}

func TestGenerateCandidatePrefixes(t *testing.T) {
	known := []ipaddr.Prefix{
		// Three siblings of one nybble group: candidates are the other 13.
		ipaddr.MustParsePrefix("2001:db8:1::/48"),
		ipaddr.MustParsePrefix("2001:db8:2::/48"),
		ipaddr.MustParsePrefix("2001:db8:3::/48"),
		// A loner: no pattern, no candidates.
		ipaddr.MustParsePrefix("2001:db8:beef::/48"),
	}
	got := generateCandidatePrefixes(known, 1000)
	if len(got) != 13 {
		t.Fatalf("candidates = %d, want 13: %v", len(got), got)
	}
	seen := make(map[ipaddr.Prefix]bool)
	for _, p := range got {
		if p.Bits() != 48 {
			t.Fatalf("candidate %v has bits %d, want 48", p, p.Bits())
		}
		seen[p] = true
	}
	for _, p := range known {
		if seen[p] {
			t.Fatalf("listed prefix %v re-proposed", p)
		}
	}
	if !seen[ipaddr.MustParsePrefix("2001:db8:7::/48")] {
		t.Fatal("sibling 2001:db8:7::/48 not proposed")
	}

	// The cap truncates deterministically.
	if capped := generateCandidatePrefixes(known, 5); len(capped) != 5 {
		t.Fatalf("capped candidates = %d, want 5", len(capped))
	}

	// Structural candidates shortcut the density ramp just like listed
	// prefixes: an address in a never-listed sibling is confirmed at once.
	list := NewOfflineList(known)
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return true }}
	d := New(ModeCooldown, list, prober, proto.ICMP, 3, nil)
	sib := []ipaddr.Addr{ipaddr.MustParse("2001:db8:7::1")}
	_, aliased := d.Split(sib)
	if len(aliased) != 1 {
		t.Fatal("structural candidate not confirmed on first sight")
	}
}
