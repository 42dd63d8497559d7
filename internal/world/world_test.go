package world

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// smallWorld builds a compact deterministic world shared across tests.
func smallWorld(t testing.TB) *World {
	t.Helper()
	return New(Config{Seed: 42, NumASes: 60, LossRate: 0})
}

func TestBuildDeterminism(t *testing.T) {
	w1 := New(Config{Seed: 7, NumASes: 30})
	w2 := New(Config{Seed: 7, NumASes: 30})
	if len(w1.Regions()) != len(w2.Regions()) {
		t.Fatalf("region counts differ: %d vs %d", len(w1.Regions()), len(w2.Regions()))
	}
	for i := range w1.Regions() {
		a, b := w1.Regions()[i], w2.Regions()[i]
		if a.Prefix != b.Prefix || a.asn != b.asn || a.Class != b.Class || a.density != b.density {
			t.Fatalf("region %d differs: %v vs %v", i, a, b)
		}
	}
	// Different seed produces a different world.
	w3 := New(Config{Seed: 8, NumASes: 30})
	same := len(w3.Regions()) == len(w1.Regions())
	if same {
		diff := false
		for i := range w1.Regions() {
			if w1.Regions()[i].Prefix != w3.Regions()[i].Prefix {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestWorldShape(t *testing.T) {
	w := smallWorld(t)
	if w.ASDB().Len() < 60 {
		t.Fatalf("AS count = %d", w.ASDB().Len())
	}
	if len(w.Regions()) < 100 {
		t.Fatalf("region count = %d", len(w.Regions()))
	}
	// Must contain aliased regions and the pathological AS.
	if len(w.AliasedPrefixes()) == 0 {
		t.Fatal("no aliased prefixes")
	}
	if _, ok := w.ASDB().Get(PathologicalASN); !ok {
		t.Fatal("pathological AS missing")
	}
	// Every region is routed to its own ASN.
	for _, r := range w.Regions() {
		asn, ok := w.ASNOf(r.Prefix.Addr().AddLo(5))
		if !ok {
			t.Fatalf("region %v unrouted", r)
		}
		if asn != r.asn {
			t.Fatalf("region %v routes to AS%d", r, asn)
		}
	}
}

func TestActivityInvariants(t *testing.T) {
	w := smallWorld(t)
	s := w.NewSampler(1)
	addrs := s.Hosts(500)
	if len(addrs) < 400 {
		t.Fatalf("sampled only %d hosts", len(addrs))
	}
	for _, a := range addrs {
		if !w.ExistsAt(a, CollectEpoch) {
			t.Fatalf("sampled host %v does not exist at collect epoch", a)
		}
		r, ok := w.RegionOf(a)
		if !ok {
			t.Fatalf("host %v has no region", a)
		}
		if !r.Aliased && !r.Template.matches(a) {
			t.Fatalf("host %v does not match its region template", a)
		}
		// ActiveOn implies ExistsAt for non-aliased regions.
		for _, p := range proto.All {
			if w.ActiveOn(a, p, CollectEpoch) && !w.ExistsAt(a, CollectEpoch) {
				t.Fatalf("%v active but nonexistent", a)
			}
		}
	}
}

func TestActivityDeterministic(t *testing.T) {
	w := smallWorld(t)
	s := w.NewSampler(2)
	for _, a := range s.Hosts(200) {
		for _, p := range proto.All {
			if w.ActiveOn(a, p, ScanEpoch) != w.ActiveOn(a, p, ScanEpoch) {
				t.Fatal("activity not deterministic")
			}
		}
	}
}

func TestChurnShrinksAndBirthAdds(t *testing.T) {
	w := smallWorld(t)
	s := w.NewSampler(3)
	addrs := s.Hosts(3000)
	churned, alive := 0, 0
	for _, a := range addrs {
		if w.ExistsAt(a, ScanEpoch) {
			alive++
		} else {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("no churn observed: every collected host still alive")
	}
	if alive == 0 {
		t.Fatal("everything churned")
	}
	// Churn should be a minority effect.
	if float64(churned) > 0.6*float64(len(addrs)) {
		t.Fatalf("churn too aggressive: %d/%d", churned, len(addrs))
	}

	// Birth: some addresses exist at scan epoch that did not at collection.
	born := 0
	for _, r := range w.Regions() {
		if r.Aliased || r.birth == 0 || r.density < minSampleDensity {
			continue
		}
		tpl := r.Template
		for i, a := range tpl.enumerate(2000) {
			_ = i
			if !w.ExistsAt(a, CollectEpoch) && w.ExistsAt(a, ScanEpoch) {
				born++
			}
		}
		if born > 0 {
			break
		}
	}
	if born == 0 {
		t.Fatal("no births observed")
	}
}

func TestAliasedRegionAnswersEverything(t *testing.T) {
	w := smallWorld(t)
	var aliased *Region
	for _, r := range w.Regions() {
		if r.Aliased && r.RespRate == 1 {
			aliased = r
			break
		}
	}
	if aliased == nil {
		t.Skip("no full-rate aliased region in this seed")
	}
	s := w.NewSampler(4)
	_ = s
	rng := newTestRand(5)
	for i := 0; i < 50; i++ {
		a := aliased.Prefix.RandomWithin(rng)
		if !w.IsAliased(a) {
			t.Fatalf("%v not reported aliased", a)
		}
		if !w.ActiveOn(a, proto.ICMP, ScanEpoch) {
			t.Fatalf("aliased %v not ICMP active", a)
		}
		if !w.ActiveOn(a, proto.TCP443, ScanEpoch) {
			t.Fatalf("aliased %v not TCP443 active", a)
		}
	}
}

func TestPathologicalPattern(t *testing.T) {
	w := smallWorld(t)
	var path *Region
	for _, r := range w.Regions() {
		if r.asn == PathologicalASN {
			path = r
			break
		}
	}
	if path == nil {
		t.Fatal("pathological region missing")
	}
	// Roughly Density of in-template addresses are ICMP-active.
	rng := newTestRand(6)
	active := 0
	const n = 2000
	for i := 0; i < n; i++ {
		a := path.Template.random(rng)
		if w.ActiveOn(a, proto.ICMP, CollectEpoch) {
			active++
		}
	}
	frac := float64(active) / n
	if frac < path.density-0.08 || frac > path.density+0.08 {
		t.Fatalf("pathological active fraction %.3f, want ~%.2f", frac, path.density)
	}
}

func TestUnroutedSilence(t *testing.T) {
	w := smallWorld(t)
	a := ipaddr.MustParse("fe80::1")
	if w.ExistsAt(a, ScanEpoch) || w.ActiveOn(a, proto.ICMP, ScanEpoch) || w.IsAliased(a) {
		t.Fatal("link-local address should be dead")
	}
	if _, ok := w.RegionOf(a); ok {
		t.Fatal("unrouted address has region")
	}
}

func TestEpochSwitch(t *testing.T) {
	w := smallWorld(t)
	if w.Epoch() != CollectEpoch {
		t.Fatalf("initial epoch = %d", w.Epoch())
	}
	w.SetEpoch(ScanEpoch)
	if w.Epoch() != ScanEpoch {
		t.Fatalf("epoch after set = %d", w.Epoch())
	}
}
