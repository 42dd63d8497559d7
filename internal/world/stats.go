package world

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"seedscan/internal/proto"
)

// Stats summarizes the world's ground truth: what a perfect oracle would
// know about the simulated Internet. Experiments use it for denominators
// ("what fraction of discoverable hosts did the TGA find?") and tests use
// it to pin the world's shape.
type Stats struct {
	ASes           int
	Regions        int
	AliasedRegions int
	// ExpectedHosts is the expected number of existing hosts at the
	// collection epoch (aliased slabs count as one device each).
	ExpectedHosts float64
	// ExpectedActive is the expected number of hosts listening per
	// protocol at the collection epoch.
	ExpectedActive [proto.Count]float64
	// ByClass tallies regions and expected hosts per host class.
	ByClass map[HostClass]ClassStats
	// DarkHosts is the expected host count in regions that answer almost
	// nothing (max per-protocol response < 5%).
	DarkHosts float64
}

// ClassStats is the per-class slice of Stats.
type ClassStats struct {
	Regions       int
	ExpectedHosts float64
}

// Stats computes the ground-truth summary.
func (w *World) Stats() Stats {
	all := w.materializeAll()
	s := Stats{
		ASes:    w.ASDB().Len(),
		Regions: len(all),
		ByClass: make(map[HostClass]ClassStats),
	}
	for _, r := range all {
		if r.Aliased {
			s.AliasedRegions++
			continue
		}
		hosts := r.ExpectedHosts()
		s.ExpectedHosts += hosts
		cs := s.ByClass[r.Class]
		cs.Regions++
		cs.ExpectedHosts += hosts
		s.ByClass[r.Class] = cs
		maxResp := 0.0
		for _, p := range proto.All {
			s.ExpectedActive[p] += hosts * r.Resp[p]
			if r.Resp[p] > maxResp {
				maxResp = r.Resp[p]
			}
		}
		if maxResp < 0.05 {
			s.DarkHosts += hosts
		}
	}
	return s
}

// String renders a human-readable summary.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d ASes, %d regions (%d aliased), ~%.0f hosts (%.0f dark)\n",
		s.ASes, s.Regions, s.AliasedRegions, s.ExpectedHosts, s.DarkHosts)
	for _, p := range proto.All {
		fmt.Fprintf(&sb, "  expected %s-active: %.0f\n", p, s.ExpectedActive[p])
	}
	classes := make([]HostClass, 0, len(s.ByClass))
	for c := range s.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		cs := s.ByClass[c]
		fmt.Fprintf(&sb, "  %-12s %4d regions, ~%.0f hosts\n", c, cs.Regions, cs.ExpectedHosts)
	}
	return sb.String()
}

// RegionsByASN returns the regions originated by one AS.
func (w *World) RegionsByASN(asn int) []*Region {
	var out []*Region
	for _, r := range w.materializeAll() {
		if r.ASN == asn {
			out = append(out, r)
		}
	}
	return out
}

// EstimateActiveFraction empirically samples n in-template addresses from
// region r, one of w's regions, and reports the fraction active on p at the given epoch — a
// Monte-Carlo check that the deterministic activity hash realizes the
// region's configured density and response rates.
func (w *World) EstimateActiveFraction(r *Region, p proto.Protocol, epoch, n int, seed uint64) float64 {
	if n <= 0 {
		return 0
	}
	rng := newRand(seed)
	active := 0
	for i := 0; i < n; i++ {
		a := r.Template.Random(rng)
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
