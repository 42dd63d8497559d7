package zdns

import (
	"testing"

	"seedscan/internal/world"
)

func testZone(t testing.TB, rate float64) *Zone {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	z, err := NewZone(w, ZoneConfig{Seed: 9, AAAARate: rate})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZoneConfigValidation(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 30})
	for _, rate := range []float64{0, -0.5, 1.5} {
		if _, err := NewZone(w, ZoneConfig{AAAARate: rate}); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

func TestLookupDeterministicAndNormalized(t *testing.T) {
	z := testZone(t, 0.5)
	a := z.lookup("WWW.Example.COM.")
	b := z.lookup("www.example.com")
	if len(a) != len(b) {
		t.Fatal("case/trailing-dot normalization failed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("lookup not deterministic")
		}
	}
}

func TestAAAARateRealized(t *testing.T) {
	z := testZone(t, 0.25)
	names := GenerateNames(3, 4000)
	hit := 0
	for _, n := range names {
		if len(z.lookup(n)) > 0 {
			hit++
		}
	}
	frac := float64(hit) / float64(len(names))
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("AAAA rate = %.3f, want ~0.25", frac)
	}
}

func TestRecordsPointAtDomainVisibleSpace(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	z, err := NewZone(w, ZoneConfig{Seed: 9, AAAARate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	aliased, clean := 0, 0
	for _, n := range GenerateNames(4, 2000) {
		for _, a := range z.lookup(n) {
			r, ok := w.RegionOf(a)
			if !ok {
				t.Fatalf("record %v unrouted", a)
			}
			if r.Aliased {
				aliased++
			} else {
				clean++
				if !w.ExistsAt(a, world.CollectEpoch) {
					t.Fatalf("clean record %v does not exist", a)
				}
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no wildcard-CDN (aliased) records")
	}
	if clean == 0 {
		t.Fatal("no clean records")
	}
}

func TestResolveAllStats(t *testing.T) {
	z := testZone(t, 0.3)
	names := GenerateNames(5, 3000)
	set, stats := (&Resolver{Zone: z, workers: 4}).ResolveAll(names)
	if stats.Domains != len(names) {
		t.Fatalf("domains = %d", stats.Domains)
	}
	if stats.AAAAs == 0 || stats.Records < stats.AAAAs {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
	if set.Len() != stats.UniqueIPs || set.Len() == 0 {
		t.Fatalf("unique = %d vs %d", set.Len(), stats.UniqueIPs)
	}
	// Table 8's shape: unique IPs < records (shared hosting collapses).
	if stats.UniqueIPs > stats.Records {
		t.Fatal("more unique IPs than records")
	}
}

func TestResolveAllDeterministic(t *testing.T) {
	z := testZone(t, 0.3)
	names := GenerateNames(6, 1500)
	s1, st1 := (&Resolver{Zone: z, workers: 7}).ResolveAll(names)
	s2, st2 := (&Resolver{Zone: z, workers: 2}).ResolveAll(names)
	if st1 != st2 {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", st1, st2)
	}
	if s1.Diff(s2).Len() != 0 {
		t.Fatal("result sets differ")
	}
}

func TestGenerateNames(t *testing.T) {
	a := GenerateNames(1, 100)
	b := GenerateNames(1, 100)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("name generation not deterministic")
		}
	}
	c := GenerateNames(2, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds give identical names")
	}
}
