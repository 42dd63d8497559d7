package alias

import (
	"math/rand"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/world"
)

func testWorld(t testing.TB) (*world.World, *scanner.Scanner) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.ScanEpoch)
	return w, scanner.New(w.Link(), scanner.WithSecret(1))
}

// fullRateAlias returns an aliased region that answers at full rate.
func fullRateAlias(t *testing.T, w *world.World) *world.Region {
	t.Helper()
	for _, r := range w.Regions() {
		if r.Aliased && r.RespRate == 1 {
			return r
		}
	}
	t.Skip("no full-rate aliased region in this seed")
	return nil
}

func TestOfflineListFiltering(t *testing.T) {
	w, _ := testWorld(t)
	all := w.AliasedPrefixes()
	if len(all) == 0 {
		t.Fatal("world has no aliases")
	}
	list := NewOfflineList(all)
	if list.Len() != len(all) {
		t.Fatalf("Len = %d", list.Len())
	}
	rng := rand.New(rand.NewSource(1))
	inAlias := all[0].RandomWithin(rng)
	if !list.Contains(inAlias) {
		t.Fatal("aliased address not matched")
	}
	if list.Contains(ipaddr.MustParse("3fff::1")) {
		t.Fatal("clean address matched")
	}

	d := New(ModeOffline, list, nil, proto.ICMP, 9)
	clean, aliased := d.Split([]ipaddr.Addr{inAlias, ipaddr.MustParse("3fff::1")})
	if len(clean) != 1 || len(aliased) != 1 {
		t.Fatalf("split = %d clean, %d aliased", len(clean), len(aliased))
	}
}

func TestOnlineDetectsUnlistedAlias(t *testing.T) {
	w, sc := testWorld(t)
	r := fullRateAlias(t, w)
	rng := rand.New(rand.NewSource(2))

	var addrs []ipaddr.Addr
	for i := 0; i < 20; i++ {
		addrs = append(addrs, r.Prefix.RandomWithin(rng))
	}
	// Also one genuinely active, non-aliased address.
	samp := w.NewSampler(3)
	real := samp.ActiveHosts(30, proto.ICMP)
	var cleanWant []ipaddr.Addr
	for _, a := range real {
		rr, _ := w.RegionOf(a)
		if !rr.Aliased && rr.RespRate == 1 {
			cleanWant = append(cleanWant, a)
		}
	}
	if len(cleanWant) == 0 {
		t.Fatal("no clean active host")
	}

	d := New(ModeOnline, nil, sc, proto.ICMP, 5)
	clean, aliased := d.Split(append(addrs, cleanWant...))
	if len(aliased) != len(addrs) {
		t.Fatalf("aliased = %d, want %d", len(aliased), len(addrs))
	}
	if len(clean) != len(cleanWant) {
		t.Fatalf("clean = %d, want %d", len(clean), len(cleanWant))
	}
	if d.PrefixesTested() == 0 || d.ProbesSent() == 0 {
		t.Fatal("online test sent no probes")
	}
}

func TestOnlineVerdictCache(t *testing.T) {
	w, sc := testWorld(t)
	r := fullRateAlias(t, w)
	rng := rand.New(rand.NewSource(4))
	a := r.Prefix.RandomWithin(rng)
	// Two addresses in the same /96.
	b := ipaddr.PrefixFrom(a, AliasPrefixBits).Overlay(ipaddr.AddrFrom64s(0, 12345))

	d := New(ModeOnline, nil, sc, proto.ICMP, 5)
	d.Split([]ipaddr.Addr{a})
	probesAfterFirst := d.ProbesSent()
	d.Split([]ipaddr.Addr{b})
	if d.ProbesSent() != probesAfterFirst {
		t.Fatal("cached /96 was re-probed")
	}
}

func TestJointCombinesBoth(t *testing.T) {
	w, sc := testWorld(t)
	all := w.AliasedPrefixes()
	if len(all) < 2 {
		t.Skip("need 2+ aliased prefixes")
	}
	// Offline list knows only the first alias; online must catch others.
	list := NewOfflineList(all[:1])
	rng := rand.New(rand.NewSource(6))

	var known, unknown []ipaddr.Addr
	for i := 0; i < 10; i++ {
		known = append(known, all[0].RandomWithin(rng))
	}
	var unlisted ipaddr.Prefix
	for _, p := range all[1:] {
		// Pick a full-rate unlisted alias for reliable online detection.
		for _, r := range w.Regions() {
			if r.Aliased && r.Prefix == p && r.RespRate == 1 {
				unlisted = p
				break
			}
		}
		if unlisted.Bits() != 0 {
			break
		}
	}
	if unlisted.Bits() == 0 {
		t.Skip("no full-rate unlisted alias")
	}
	for i := 0; i < 10; i++ {
		unknown = append(unknown, unlisted.RandomWithin(rng))
	}

	d := New(ModeJoint, list, sc, proto.ICMP, 7)
	clean, aliased := d.Split(append(known, unknown...))
	if len(aliased) != 20 {
		t.Fatalf("aliased = %d, want 20 (clean=%d)", len(aliased), len(clean))
	}
	// Offline-known prefixes must not consume online probes: only the /96s
	// of the unlisted addresses may be tested.
	distinct := ipaddr.NewSet()
	for _, a := range unknown {
		distinct.Add(ipaddr.PrefixFrom(a, AliasPrefixBits).Addr())
	}
	if d.PrefixesTested() != distinct.Len() {
		t.Fatalf("prefixes tested = %d, want %d (offline-listed must be free)",
			d.PrefixesTested(), distinct.Len())
	}
}

func TestRateLimitedAliasEvadesOnline(t *testing.T) {
	w, sc := testWorld(t)
	var rl *world.Region
	for _, r := range w.Regions() {
		if r.Aliased && r.RespRate < 0.2 {
			rl = r
			break
		}
	}
	if rl == nil {
		t.Skip("no heavily rate-limited alias in this seed")
	}
	rng := rand.New(rand.NewSource(8))
	var addrs []ipaddr.Addr
	for i := 0; i < 60; i++ {
		// Spread over many /96s so we test many prefixes.
		addrs = append(addrs, rl.Prefix.RandomWithin(rng))
	}
	d := New(ModeOnline, nil, sc, proto.ICMP, 11)
	clean, _ := d.Split(addrs)
	// With RespRate ~0.12 most prefixes evade the 2-of-3 test: the paper's
	// EIP/Amazon effect.
	if len(clean) == 0 {
		t.Fatal("rate-limited alias fully detected; expected evasion")
	}
}

func TestModeNonePassesThrough(t *testing.T) {
	d := New(ModeNone, nil, nil, proto.ICMP, 1)
	in := []ipaddr.Addr{ipaddr.MustParse("::1"), ipaddr.MustParse("::2")}
	clean, aliased := d.Split(in)
	if len(clean) != 2 || len(aliased) != 0 {
		t.Fatal("ModeNone must pass everything through")
	}
	if d.isAliased(in[0]) {
		t.Fatal("ModeNone IsAliased must be false")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeNone: "none", ModeOffline: "offline", ModeOnline: "online",
		ModeJoint: "joint", ModeCooldown: "cooldown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", m, m.String())
		}
		got, err := ParseMode(s)
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if len(Modes) != 5 {
		t.Fatal("Modes must list all five treatments")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}
}

func TestOnlineCleanRegionNotAliased(t *testing.T) {
	w, sc := testWorld(t)
	samp := w.NewSampler(12)
	var clean []ipaddr.Addr
	for _, a := range samp.ActiveHosts(100, proto.ICMP) {
		r, _ := w.RegionOf(a)
		if !r.Aliased {
			clean = append(clean, a)
		}
	}
	if len(clean) < 50 {
		t.Fatal("not enough clean actives")
	}
	d := New(ModeOnline, nil, sc, proto.ICMP, 13)
	got, aliased := d.Split(clean)
	// Sparse regions should essentially never have 2-of-3 random /96
	// neighbours active.
	if len(aliased) > len(clean)/20 {
		t.Fatalf("%d/%d clean addrs misclassified as aliased", len(aliased), len(clean))
	}
	if len(got)+len(aliased) != len(clean) {
		t.Fatal("split lost addresses")
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Split is a partition: clean ∪ aliased == input (as multisets of
	// unique addrs), clean ∩ aliased == ∅ — under every mode.
	w, sc := testWorld(t)
	list := NewOfflineList(w.AliasedPrefixes()[:1])
	samp := w.NewSampler(99)
	aliasSamp := w.NewSampler(100)
	input := append(samp.Hosts(300), aliasSamp.Aliased(200)...)
	input = new(ipaddr.Deduper).Append(nil, input)

	for _, mode := range Modes {
		d := New(mode, list, sc, proto.ICMP, 123)
		clean, aliased := d.Split(append([]ipaddr.Addr(nil), input...))
		if len(clean)+len(aliased) != len(input) {
			t.Fatalf("%v: %d + %d != %d", mode, len(clean), len(aliased), len(input))
		}
		cs := ipaddr.NewSet(clean...)
		for _, a := range aliased {
			if cs.Contains(a) {
				t.Fatalf("%v: %v in both partitions", mode, a)
			}
		}
	}
}

func TestSplitVerdictConsistentAcrossCalls(t *testing.T) {
	w, sc := testWorld(t)
	aliasSamp := w.NewSampler(101)
	addrs := aliasSamp.Aliased(50)
	d := New(ModeOnline, nil, sc, proto.ICMP, 5)
	_, a1 := d.Split(append([]ipaddr.Addr(nil), addrs...))
	_, a2 := d.Split(append([]ipaddr.Addr(nil), addrs...))
	if len(a1) != len(a2) {
		t.Fatalf("verdicts changed across calls: %d vs %d", len(a1), len(a2))
	}
}

// isAliased runs the configured test for a single address (probing its /96
// if needed).
func (d *Dealiaser) isAliased(a ipaddr.Addr) bool {
	_, aliased := d.Split([]ipaddr.Addr{a})
	return len(aliased) == 1
}
