package world

import (
	"fmt"
	"sort"
	"strings"

	"seedscan/internal/proto"
)

// Stats summarizes the world's ground truth: what a perfect oracle would
// know about the simulated Internet. Experiments use it for denominators
// ("what fraction of discoverable hosts did the TGA find?") and tests use
// it to pin the world's shape.
type Stats struct {
	ases           int
	regions        int
	aliasedRegions int
	// expectedHosts is the expected number of existing hosts at the
	// collection epoch (aliased slabs count as one device each).
	expectedHosts float64
	// expectedActive is the expected number of hosts listening per
	// protocol at the collection epoch.
	expectedActive [proto.Count]float64
	// byClass tallies regions and expected hosts per host class.
	byClass map[HostClass]ClassStats
	// darkHosts is the expected host count in regions that answer almost
	// nothing (max per-protocol response < 5%).
	darkHosts float64
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
		ases:    w.ASDB().Len(),
		regions: len(all),
		byClass: make(map[HostClass]ClassStats),
	}
	for _, r := range all {
		if r.Aliased {
			s.aliasedRegions++
			continue
		}
		hosts := r.ExpectedHosts()
		s.expectedHosts += hosts
		cs := s.byClass[r.Class]
		cs.Regions++
		cs.ExpectedHosts += hosts
		s.byClass[r.Class] = cs
		maxResp := 0.0
		for _, p := range proto.All {
			s.expectedActive[p] += hosts * r.resp[p]
			if r.resp[p] > maxResp {
				maxResp = r.resp[p]
			}
		}
		if maxResp < 0.05 {
			s.darkHosts += hosts
		}
	}
	return s
}

// String renders a human-readable summary.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d ASes, %d regions (%d aliased), ~%.0f hosts (%.0f dark)\n",
		s.ases, s.regions, s.aliasedRegions, s.expectedHosts, s.darkHosts)
	for _, p := range proto.All {
		fmt.Fprintf(&sb, "  expected %s-active: %.0f\n", p, s.expectedActive[p])
	}
	classes := make([]HostClass, 0, len(s.byClass))
	for c := range s.byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		cs := s.byClass[c]
		fmt.Fprintf(&sb, "  %-12s %4d regions, ~%.0f hosts\n", c, cs.Regions, cs.ExpectedHosts)
	}
	return sb.String()
}
