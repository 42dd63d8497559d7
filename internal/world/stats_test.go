package world

import (
	"math/rand"
	"strings"
	"testing"

	"seedscan/internal/proto"
)

func TestStatsShape(t *testing.T) {
	w := smallWorld(t)
	s := w.Stats()
	if s.ases != w.ASDB().Len() {
		t.Fatalf("ASes = %d", s.ases)
	}
	if s.regions != len(w.Regions()) {
		t.Fatalf("Regions = %d", s.regions)
	}
	if s.aliasedRegions != len(w.AliasedPrefixes()) {
		t.Fatalf("AliasedRegions = %d", s.aliasedRegions)
	}
	if s.expectedHosts <= 0 {
		t.Fatal("no expected hosts")
	}
	// ICMP dominates TCP and UDP in expectation, like the live Internet.
	if s.expectedActive[proto.ICMP] <= s.expectedActive[proto.TCP80] ||
		s.expectedActive[proto.ICMP] <= s.expectedActive[proto.UDP53] {
		t.Fatalf("expected actives: %v", s.expectedActive)
	}
	// Dark space exists and is a minority.
	if s.darkHosts <= 0 || s.darkHosts >= s.expectedHosts/2 {
		t.Fatalf("dark hosts = %.0f of %.0f", s.darkHosts, s.expectedHosts)
	}
	// Every class with regions appears.
	if s.byClass[ClassRouter].Regions == 0 || s.byClass[ClassISPCustomer].Regions == 0 {
		t.Fatal("class breakdown missing core classes")
	}
	out := s.String()
	for _, want := range []string{"ASes", "Router", "expected ICMP-active"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestEstimateActiveFractionMatchesDensity(t *testing.T) {
	w := smallWorld(t)
	for _, r := range w.Regions() {
		if r.Aliased || r.Class != ClassISPCustomer {
			continue
		}
		want := r.density * r.resp[proto.ICMP]
		got := w.estimateActiveFraction(r, proto.ICMP, CollectEpoch, 4000, 9)
		if got < want-0.06 || got > want+0.06 {
			t.Fatalf("region %v: measured %.3f, configured %.3f", r, got, want)
		}
		return // one Monte-Carlo check is enough
	}
	t.Fatal("no customer region found")
}

func TestEstimateActiveFractionZeroSamples(t *testing.T) {
	w := smallWorld(t)
	if got := w.estimateActiveFraction(w.Regions()[0], proto.ICMP, 0, 0, 1); got != 0 {
		t.Fatalf("zero samples = %v", got)
	}
}

func TestRegionsByASN(t *testing.T) {
	w := smallWorld(t)
	r0 := w.Regions()[0]
	got := w.regionsByASN(r0.asn)
	if len(got) == 0 {
		t.Fatal("no regions for known ASN")
	}
	for _, r := range got {
		if r.asn != r0.asn {
			t.Fatal("wrong ASN in result")
		}
	}
	if len(w.regionsByASN(-1)) != 0 {
		t.Fatal("regions for bogus ASN")
	}
}

// regionsByASN returns the regions originated by one AS.
func (w *World) regionsByASN(asn int) []*Region {
	var out []*Region
	for _, r := range w.materializeAll() {
		if r.asn == asn {
			out = append(out, r)
		}
	}
	return out
}

// estimateActiveFraction empirically samples n in-template addresses from
// region r, one of w's regions, and reports the fraction active on p at the given epoch — a
// Monte-Carlo check that the deterministic activity hash realizes the
// region's configured density and response rates.
func (w *World) estimateActiveFraction(r *Region, p proto.Protocol, epoch, n int, seed uint64) float64 {
	if n <= 0 {
		return 0
	}
	rng := newRand(seed)
	active := 0
	for i := 0; i < n; i++ {
		a := r.Template.random(rng)
		if w.listens(a, r, p, w.existsAt(a, r, epoch)) {
			active++
		}
	}
	return float64(active) / float64(n)
}

// newRand builds the deterministic RNG used by Monte-Carlo estimators.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}
