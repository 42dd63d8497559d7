package scanner

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/world"
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	return world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
}

func TestScanFindsGroundTruthActives(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	s := New(w.Link(), WithSecret(99))

	for _, p := range proto.All {
		samp := w.NewSampler(uint64(p) + 500)
		active := samp.ActiveHosts(100, p)
		if len(active) < 50 {
			t.Fatalf("%v: only %d ground-truth actives", p, len(active))
		}
		// Full-rate targets only: rate-limited PoPs legitimately drop.
		var targets []ipaddr.Addr
		for _, a := range active {
			r, _ := w.RegionOf(a)
			if r.RespRate == 1 {
				targets = append(targets, a)
			}
		}
		hits := s.ScanActive(targets, p)
		if len(hits) != len(targets) {
			t.Errorf("%v: %d/%d actives confirmed", p, len(hits), len(targets))
		}
	}
}

func TestScanRejectsInactives(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	s := New(w.Link(), WithSecret(99))

	// Unrouted space must never produce hits.
	var targets []ipaddr.Addr
	base := ipaddr.MustParse("3fff::")
	for i := 0; i < 200; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	for _, p := range proto.All {
		res := s.Scan(targets, p)
		for _, r := range res {
			if r.Active() {
				t.Fatalf("%v: unrouted %v reported active", p, r.Addr)
			}
			if r.Status != StatusSilent {
				t.Fatalf("%v: unrouted %v status %v", p, r.Addr, r.Status)
			}
		}
	}
}

func TestRSTAndUnreachableAreNotHits(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	s := New(w.Link(), WithSecret(7))

	// Probe existing hosts on TCP80; those not listening must come back
	// RST or silent, never active.
	samp := w.NewSampler(77)
	hosts := samp.Hosts(2000)
	var closed []ipaddr.Addr
	for _, a := range hosts {
		if !w.ActiveOn(a, proto.TCP80, world.CollectEpoch) {
			closed = append(closed, a)
		}
	}
	if len(closed) < 100 {
		t.Fatalf("only %d closed hosts", len(closed))
	}
	sawRST := false
	for _, r := range s.Scan(closed, proto.TCP80) {
		if r.Active() {
			t.Fatalf("closed host %v counted as hit", r.Addr)
		}
		if r.Status == StatusRST {
			sawRST = true
		}
	}
	if !sawRST {
		t.Fatal("no RSTs observed across closed hosts")
	}
	if s.Stats().RSTs.Load() == 0 {
		t.Fatal("RST counter not incremented")
	}
}

func TestUnreachableClassified(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	s := New(w.Link(), WithSecret(7))

	// Dead in-template addresses inside regions that send unreachables.
	var targets []ipaddr.Addr
	for _, r := range w.Regions() {
		if r.Aliased || r.SendsUnreach < 0.3 {
			continue
		}
		for _, a := range r.Template.Enumerate(500) {
			if !w.ExistsAt(a, world.CollectEpoch) {
				targets = append(targets, a)
			}
			if len(targets) >= 300 {
				break
			}
		}
		if len(targets) >= 300 {
			break
		}
	}
	res := s.Scan(targets, proto.ICMP)
	un := 0
	for _, r := range res {
		if r.Active() {
			t.Fatalf("dead %v reported active", r.Addr)
		}
		if r.Status == StatusUnreachable {
			un++
		}
	}
	if un == 0 {
		t.Fatal("no unreachables classified")
	}
}

func TestBlocklistHonoured(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(11)
	active := samp.ActiveHosts(50, proto.ICMP)
	if len(active) == 0 {
		t.Fatal("no actives")
	}

	s := New(w.Link(), WithSecret(3), WithBlocklist([]ipaddr.Prefix{ipaddr.PrefixFrom(active[0], 128)}))
	res := s.Scan(active[:1], proto.ICMP)
	if res[0].Status != StatusBlocked {
		t.Fatalf("status = %v, want blocked", res[0].Status)
	}
	if s.Stats().PacketsSent.Load() != 0 {
		t.Fatal("blocked target was probed")
	}
}

func TestRetriesRecoverFromLoss(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0.35})
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(13)
	var targets []ipaddr.Addr
	for _, a := range samp.ActiveHosts(300, proto.ICMP) {
		r, _ := w.RegionOf(a)
		if r.RespRate == 1 {
			targets = append(targets, a)
		}
	}
	// With 35% loss and 3 attempts, expected miss rate is 4.3%; with only
	// one attempt it is 35%.
	s3 := New(w.Link(), WithSecret(5), WithRetries(2))
	hits3 := len(s3.ScanActive(targets, proto.ICMP))
	// With 35% loss and 3 attempts the expected miss rate is ~4.3%.
	if got, want := float64(hits3)/float64(len(targets)), 0.90; got < want {
		t.Fatalf("hit rate with retries = %.3f, want >= %.2f", got, want)
	}
}

func TestScanDedupsTargets(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(17)
	a := samp.ActiveHosts(1, proto.ICMP)
	if len(a) != 1 {
		t.Fatal("no active host")
	}
	s := New(w.Link(), WithSecret(5))
	res := s.Scan([]ipaddr.Addr{a[0], a[0], a[0]}, proto.ICMP)
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1 after dedup", len(res))
	}
}

func TestCookieValidationRejectsForgery(t *testing.T) {
	w := testWorld(t)
	s := New(w.Link(), WithSecret(21))
	dst := ipaddr.MustParse("2001:db8::1")
	c := s.cookie(dst, proto.ICMP)

	// A reply with the wrong cookie payload must not classify as active.
	var forged [8]byte
	putUint64(forged[:], c^1)
	reply := buildForgedEchoReply(s.set.source, dst, uint16(c>>48), 0, forged[:])
	if st, ok := s.classify(reply, dst, proto.ICMP, c, 0); ok && st == StatusActive {
		t.Fatal("forged cookie accepted")
	}
	// The genuine cookie is accepted.
	var good [8]byte
	putUint64(good[:], c)
	reply = buildForgedEchoReply(s.set.source, dst, uint16(c>>48), 0, good[:])
	if st, ok := s.classify(reply, dst, proto.ICMP, c, 0); !ok || st != StatusActive {
		t.Fatal("genuine cookie rejected")
	}
}

func TestVirtualRateAccounting(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	s := New(w.Link(), WithSecret(5), WithRatePPS(1000))
	var targets []ipaddr.Addr
	base := ipaddr.MustParse("3fff::")
	for i := 0; i < 100; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	s.Scan(targets, proto.ICMP)
	// 100 silent targets × 3 attempts = 300 packets at 1000 pps = 0.3 s.
	if got := s.VirtualElapsed(); got < 0.29 || got > 0.31 {
		t.Fatalf("virtual elapsed = %v, want ~0.3", got)
	}
}

func TestRateLimiterMonotonic(t *testing.T) {
	rl := NewRateLimiter(100)
	last := -1.0
	for i := 0; i < 50; i++ {
		ts := rl.Take()
		if ts <= last {
			t.Fatal("timestamps not increasing")
		}
		last = ts
	}
	if got := rl.VirtualElapsed(); got < 0.49 || got > 0.51 {
		t.Fatalf("elapsed = %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(23)
	var targets []ipaddr.Addr
	for _, a := range samp.ActiveHosts(50, proto.ICMP) {
		r, _ := w.RegionOf(a)
		if r.RespRate == 1 {
			targets = append(targets, a)
		}
	}
	s := New(w.Link(), WithSecret(5))
	s.Scan(targets, proto.ICMP)
	if got := s.Stats().Hits.Load(); got != int64(len(targets)) {
		t.Fatalf("hits = %d, want %d", got, len(targets))
	}
	if s.Stats().PacketsSent.Load() < int64(len(targets)) {
		t.Fatal("sent counter too low")
	}
}

// buildForgedEchoReply lets the test synthesize replies without the world.
func buildForgedEchoReply(scanAddr, from ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	return probe.BuildEchoReply(from, scanAddr, id, seq, payload)
}
