package tga

import (
	"reflect"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
)

// addRegion gives e a region of `width` addresses that differ in the last
// nybble; every other nybble is v, which tells regions apart.
func addRegion(e *Expander, v byte, width int, weight float64) {
	masks := pinnedMasks(v)
	masks[ipaddr.NybbleCount-1] = 1<<width - 1
	e.Add(masks, weight, 0)                  // chunk floored to minChunk
	e.gens[len(e.gens)-1].widenPos = []int{} // never widen: the region can run dry
}

// visits renders a batch as the region digit of each address.
func visits(batch []ipaddr.Addr) string {
	var b strings.Builder
	for _, a := range batch {
		b.WriteByte('0' + a.Nybble(0))
	}
	return b.String()
}

func TestExpanderTieGoesToLowestIndex(t *testing.T) {
	e := NewExpander(3, 0)
	for v := byte(1); v <= 3; v++ {
		addRegion(e, v, 16, 2)
	}
	// Equal scores: region 1 first. Then it has produced the most, and the
	// tie between the other two again goes to the lower index.
	for round, want := range []string{"1", "2", "3", "1"} {
		if got := visits(e.NextBatch(minChunk, minChunk)); got != strings.Repeat(want, minChunk) {
			t.Fatalf("round %d visited %s, want region %s", round, got, want)
		}
	}
}

func TestExpanderSkipsExhaustedRegionsForGood(t *testing.T) {
	e := NewExpander(3, 0)
	addRegion(e, 1, 2, 1000) // two addresses, far the best score
	addRegion(e, 2, 16, 2)
	addRegion(e, 2, 16, 0.001) // the same 16 addresses, visited last: nothing fresh to give
	for i, want := range []string{"11" + "22222222", "22222222", ""} {
		if got := visits(e.NextBatch(10, 10)); got != want {
			t.Fatalf("batch %d visited %q, want %q", i, got, want)
		}
		if e.weight[0] != 0 {
			t.Fatalf("batch %d: exhausted region keeps weight %v", i, e.weight[0])
		}
	}
	if want := []int{2, 16, 0}; !reflect.DeepEqual(e.produced, want) {
		t.Fatalf("produced %v, want %v (duplicates do not count)", e.produced, want)
	}
}

func TestGeometricShares(t *testing.T) {
	var asked []int
	all := func(_ int, k int) int { asked = append(asked, k); return k }
	none := func(_ int, k int) int { asked = append(asked, k); return 0 }
	for _, tc := range []struct {
		entries, budget int
		take            func(int, int) int
		want            []int
	}{
		{10, 20, all, []int{10, 5, 2, 1, 1, 1}}, // b/2, b/4, ..., floor 1, stops at the budget
		{10, 0, all, nil},
		{10, 1, all, []int{1}},
		{2, 20, all, []int{10, 5}},                 // the list runs out first
		{5, 3, all, []int{1, 1, 1}},                // floored, then capped by what is left
		{1, 1000, all, []int{500}},                 // never more than half to one entry
		{40, 33, all, []int{16, 8, 4, 2, 1, 1, 1}}, // 31, then the floor fills the rest
		{4, 16, none, []int{8, 4, 2, 1}},           // a short take is not made up for
	} {
		asked = nil
		GeometricShares(make([]int, tc.entries), tc.budget, tc.take)
		if !reflect.DeepEqual(asked, tc.want) {
			t.Errorf("%d entries, budget %d: shares %v, want %v", tc.entries, tc.budget, asked, tc.want)
		}
		sum := 0
		for _, k := range asked {
			sum += k
		}
		if sum > tc.budget {
			t.Errorf("%d entries, budget %d: asked for %d in all", tc.entries, tc.budget, sum)
		}
	}
}

var searchSeeds = seedsFrom(
	"2001:db8:1::1", "2001:db8:1::2", "2001:db8:1::3", "2001:db8:1::14",
	"2001:db8:2::1", "2001:db8:2::2", "2001:db8:2::a1", "2001:db8:2::a2",
	"2001:db9::5", "2001:db9::6",
)

// newSearch searches the min-entropy tree of searchSeeds, counting probes
// at take time, with two leaves enumerating the same space so that only
// the emitted set keeps them apart.
func newSearch(t *testing.T) *LeafSearch {
	leaves := BuildTree(searchSeeds, 2, SplitMinEntropy).Leaves()
	if len(leaves) < 3 {
		t.Fatalf("only %d leaves", len(leaves))
	}
	leaves[1].Gen = NewLeafGen(leaves[0].Masks, nil)
	return NewLeafSearch(leaves, 0, func(l *TreeNode, got int) { l.Probes += got })
}

// propose asks s for a batch of n the way DET does: 60% down the ranking,
// the rest round-robin from its top.
func propose(s *LeafSearch, n int) []ipaddr.Addr {
	i := 0
	return s.NextBatch(n, s.Live(), n*6/10, n, func() int { i++; return i - 1 })
}

func TestLeafSearchNeverProposesTwice(t *testing.T) {
	s := newSearch(t)
	seen := ipaddr.NewSet()
	for round := 0; round < 10; round++ {
		if round == 5 {
			// The same leaves with fresh enumerators, which start over from
			// addresses already proposed.
			s.Rebuild(searchSeeds, nil, 2, SplitMinEntropy)
		}
		batch := propose(s, 200)
		if len(batch) != 200 {
			t.Fatalf("round %d: batch of %d", round, len(batch))
		}
		for _, a := range batch {
			if !seen.Add(a) {
				t.Fatalf("round %d: %v proposed twice", round, a)
			}
		}
	}
}

func TestLeafSearchExploreCountsPicksNotAddresses(t *testing.T) {
	s := newSearch(t)
	ranked := s.Live()
	for _, l := range ranked[1:] {
		l.Gen = nil // exhausted since they were ranked
	}
	picks := 0
	batch := s.NextBatch(100, ranked, 0, 8, func() int { picks++; return picks - 1 })
	if want := (8 + len(ranked) - 1) / len(ranked); picks != 8 || len(batch) != want || ranked[0].Probes != want {
		t.Fatalf("%d picks gave %d addresses, want 8 and %d (one live leaf of %d)", picks, len(batch), want, len(ranked))
	}
	if got := s.NextBatch(100, nil, 60, 0, nil); got != nil {
		t.Fatalf("no live leaves, got %v", got)
	}
}

func TestLeafSearchResolveAndRebuild(t *testing.T) {
	s := newSearch(t)
	batch := propose(s, 50)
	stranger := ipaddr.MustParse("2001:db8:ffff::1") // never proposed
	results := []ProbeResult{{Addr: stranger}}
	for _, a := range batch[:25] {
		results = append(results, ProbeResult{Addr: a})
	}
	reported := ipaddr.NewSet()
	s.Resolve(results, func(l *TreeNode, r ProbeResult) {
		if !reported.Add(r.Addr) {
			t.Fatalf("%v reported twice", r.Addr)
		}
		l.Hits++
	})
	if reported.Len() != 25 || reported.Contains(stranger) {
		t.Fatalf("%d reports for 25 proposals", reported.Len())
	}
	s.Resolve(results, func(*TreeNode, ProbeResult) { t.Fatal("a second report for one proposal") })
	hits, probes := 0, 0
	for _, l := range s.leaves {
		hits, probes = hits+l.Hits, probes+l.Probes
	}
	if hits != 25 || probes != 50 || len(s.pending) != 25 {
		t.Fatalf("%d hits, %d probes, %d pending, want 25, 50, 25", hits, probes, len(s.pending))
	}

	// A rebuild folds hits in beside the seeds, once each, forgets the 25
	// proposals still out, and keeps all 50 emitted.
	hit := ipaddr.MustParse("2001:db8:3::1")
	s.Rebuild(searchSeeds, []ipaddr.Addr{hit, searchSeeds[0]}, 2, SplitMinEntropy)
	total := 0
	for _, l := range s.leaves {
		total += len(l.Seeds)
	}
	if total != len(searchSeeds)+1 {
		t.Fatalf("rebuilt over %d addresses, want %d", total, len(searchSeeds)+1)
	}
	for _, a := range batch {
		results = append(results, ProbeResult{Addr: a})
	}
	s.Resolve(results, func(*TreeNode, ProbeResult) { t.Fatal("a proposal outlived the rebuild") })
	if s.emitted.Len() != 50 || !s.emitted.Contains(batch[0]) || !s.emitted.Contains(batch[49]) {
		t.Fatalf("emitted holds %d after the rebuild, want the 50 proposed", s.emitted.Len())
	}
}
