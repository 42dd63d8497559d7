package tga

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
)

// addRegion gives e a region of `width` addresses that differ in the last
// nybble; every other nybble is v, which tells regions apart.
func addRegion(e *Expander, v byte, width int, weight float64) {
	masks := pinnedMasks(v)
	masks[ipaddr.NybbleCount-1] = 1<<width - 1
	e.Add(&masks, weight, 0)                                     // chunk floored to minChunk
	e.regions[len(e.regions)-1].gen = newLeafGen(masks, []int{}) // never widen: the region can run dry
}

// produced lists what each of e's regions has produced, in Add order.
func produced(e *Expander) []int {
	out := make([]int, len(e.regions))
	for i, r := range e.regions {
		out[i] = r.produced
	}
	return out
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
	e := NewExpander(3)
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
	e := NewExpander(3)
	addRegion(e, 1, 2, 1000) // two addresses, far the best score
	addRegion(e, 2, 16, 2)
	addRegion(e, 2, 16, 0.001) // the same 16 addresses, visited last: nothing fresh to give
	for i, want := range []string{"11" + "22222222", "22222222", ""} {
		if got := visits(e.NextBatch(10, 10)); got != want {
			t.Fatalf("batch %d visited %q, want %q", i, got, want)
		}
		if slices.Contains(e.heap, 0) {
			t.Fatalf("batch %d: exhausted region still in the running", i)
		}
	}
	if want := []int{2, 16, 0}; !reflect.DeepEqual(produced(e), want) {
		t.Fatalf("produced %v, want %v (duplicates do not count)", produced(e), want)
	}
	for i, r := range e.regions {
		if r.gen != nil {
			t.Fatalf("region %d kept its generator after running dry", i)
		}
	}
}

func TestExpanderStartsOnlyVisitedRegions(t *testing.T) {
	// A thousand disjoint regions of sixteen addresses each, in falling
	// weight: a batch of 256 taken 16 at a time visits the first sixteen.
	masks := make([][ipaddr.NybbleCount]ValueMask, 1000)
	e := NewExpander(len(masks))
	for i := range masks {
		masks[i] = pinnedMasks(2)
		masks[i][28], masks[i][29], masks[i][30], masks[i][31] = 1<<(i/100), 1<<(i/10%10), 1<<(i%10), 0xffff
		e.Add(&masks[i], float64(len(masks)-i), 16)
	}
	if batch := e.NextBatch(256, 16); len(batch) != 256 {
		t.Fatalf("batch of %d", len(batch))
	}
	for i, r := range e.regions {
		if visited := i < 16; (r.gen != nil) != visited || (r.produced > 0) != visited {
			t.Fatalf("region %d: generator started %v, produced %d; want both only for the first 16", i, r.gen != nil, r.produced)
		}
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
	m := mustMine(t, searchSeeds, 2, SplitMinEntropy)
	if len(m.LeafModels) < 3 {
		t.Fatalf("only %d leaves", len(m.LeafModels))
	}
	m.LeafModels[1].Masks = m.LeafModels[0].Masks
	return NewLeafSearch(m.Leaves(), func(a, b *TreeNode) bool { return a.Hits > b.Hits },
		func(l *TreeNode, got int) { l.Probes += got })
}

// propose asks s for a batch of n the way DET does: 60% down the ranking,
// the rest round-robin from its top.
func propose(s *LeafSearch, n int) []ipaddr.Addr {
	i := 0
	return s.NextBatch(n, n*6/10, n, func(int) int { i++; return i - 1 })
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
	live := len(s.leaves)
	for i, l := range s.leaves[1:] {
		l.gen = newLeafGen(pinnedMasks(byte(i)), []int{}) // one address, then dry
	}
	picks := 0
	batch := s.NextBatch(100, 0, 2, func(n int) int {
		if n != live {
			t.Fatalf("pick told of %d live leaves, want %d", n, live)
		}
		picks++
		return picks - 1
	})
	// Leaf 0 ranks first (no hits anywhere, so leaf order) and is picked
	// every live-th time; each other leaf answers its first pick and runs
	// dry at its second, which still costs the pick.
	if want := 2 + (live - 1); picks != 2*live || len(batch) != want || s.leaves[0].Probes != 2 {
		t.Fatalf("%d picks gave %d addresses (%d from leaf 0), want %d, %d and 2", picks, len(batch), s.leaves[0].Probes, 2*live, want)
	}
	for i, l := range s.leaves {
		if l.dry != (i > 0) || l.dry && l.gen != nil {
			t.Fatalf("leaf %d: dry %v with generator %v, want dry for every leaf but 0, and no generator kept", i, l.dry, l.gen != nil)
		}
	}
	if got := NewLeafSearch(nil, nil, nil).NextBatch(100, 60, 1, nil); got != nil {
		t.Fatalf("no live leaves, got %v", got)
	}
}

func TestLeafSearchStartsOnlyDrawnLeaves(t *testing.T) {
	// A thousand disjoint regions of sixteen addresses each.
	m := &TreeModel{LeafModels: make([]TreeLeafModel, 1000)}
	for i := range m.LeafModels {
		masks := pinnedMasks(2)
		masks[28], masks[29], masks[30], masks[31] = 1<<(i/100), 1<<(i/10%10), 1<<(i%10), 0xffff
		m.LeafModels[i].Masks = masks
	}
	drawn := map[*TreeNode]bool{}
	s := NewLeafSearch(m.Leaves(), func(a, b *TreeNode) bool { return false },
		func(l *TreeNode, _ int) { drawn[l] = true })
	if batch := propose(s, 256); len(batch) != 256 {
		t.Fatalf("batch of %d", len(batch))
	}
	started := 0
	for _, l := range s.leaves {
		if l.gen != nil || l.dry {
			started++
		}
	}
	if started > len(drawn) || len(drawn) >= len(s.leaves) {
		t.Fatalf("%d of %d leaves started a generator, %d drawn from", started, len(s.leaves), len(drawn))
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

// TestLeafSearchPendingHoldsOneBatch: proposals no Resolve reports (a
// run without a prober, seeds and overflow the driver drops) are forgotten
// at the next batch, so however many batches are drawn, at most one
// batch's proposals are pending, and only the latest batch resolves.
func TestLeafSearchPendingHoldsOneBatch(t *testing.T) {
	s := newSearch(t)
	var results []ProbeResult
	var batch []ipaddr.Addr
	for round := 0; round < 10; round++ {
		batch = propose(s, 100)
		if len(s.pending) > len(batch) {
			t.Fatalf("round %d: %d pending after a batch of %d", round, len(s.pending), len(batch))
		}
		for _, a := range batch {
			results = append(results, ProbeResult{Addr: a})
		}
	}
	reported := 0
	s.Resolve(results, func(*TreeNode, ProbeResult) { reported++ })
	if reported != len(batch) {
		t.Fatalf("%d of %d proposals reported, want the last batch's %d", reported, len(results), len(batch))
	}
}

// argmaxExpander is the Expander as it was before it kept a heap: every
// visit scans all regions for the highest weight/(produced+1), strict >,
// and a region's weight is zeroed when its enumerator runs dry.
type argmaxExpander struct {
	weight   []float64
	chunk    []int
	produced []int
	gens     []*leafGen
	emitted  *ipaddr.Set
}

func (e *argmaxExpander) nextBatch(n, maxChunk int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, n)
	for len(out) < n {
		best, bestScore := -1, 0.0
		for i, w := range e.weight {
			if score := w / float64(e.produced[i]+1); score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		chunk := min(e.chunk[best], maxChunk)
		got := 0
		for got < chunk && len(out) < n {
			a, ok := e.gens[best].Next()
			if !ok {
				e.weight[best] = 0
				break
			}
			if e.emitted.Add(a) {
				out = append(out, a)
				got++
			}
		}
		e.produced[best] += got
	}
	return out
}

func TestExpanderHeapMatchesLinearArgmax(t *testing.T) {
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		e := NewExpander(0)
		ref := &argmaxExpander{emitted: ipaddr.NewSet()}
		regions := 1 + rng.Intn(60)
		for r := 0; r < regions; r++ {
			// Few distinct weights and chunks, so scores tie often; regions
			// overlap (a shared prefix digit), and some never widen, so
			// they run dry.
			masks := pinnedMasks(byte(rng.Intn(4)))
			for k := 0; k < 1+rng.Intn(3); k++ {
				masks[ipaddr.NybbleCount-1-rng.Intn(6)] = ValueMask(1 + rng.Intn(0xffff))
			}
			weight := []float64{0.5, 1, 2, 3, 1.5}[rng.Intn(5)]
			chunk := rng.Intn(20)
			e.Add(&masks, weight, chunk)
			ref.weight = append(ref.weight, weight)
			ref.chunk = append(ref.chunk, max(minChunk, chunk))
			ref.produced = append(ref.produced, 0)
			ref.gens = append(ref.gens, newLeafGen(masks, nil))
			if rng.Intn(3) > 0 {
				e.regions[r].gen, ref.gens[r].widenPos = newLeafGen(masks, []int{}), []int{}
			}
		}
		for batch := 0; batch < 30; batch++ {
			n, maxChunk := 1+rng.Intn(200), 1+rng.Intn(40)
			got, want := e.NextBatch(n, maxChunk), ref.nextBatch(n, maxChunk)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d batch %d: heap proposed %d addresses, argmax %d, or in another order", trial, batch, len(got), len(want))
			}
			if !slices.Equal(produced(e), ref.produced) {
				t.Fatalf("trial %d batch %d: produced %v, argmax %v", trial, batch, produced(e), ref.produced)
			}
		}
	}
}

// rankPolicy is one generator's ranking over a LeafSearch as the test
// drives it: the comparison, and the state updates that move its keys.
type rankPolicy struct {
	before   func(a, b *TreeNode) bool
	took     func(l *TreeNode, got int)
	report   func(l *TreeNode, r ProbeResult)
	feedback func() // after Resolve
	rebuilt  func()
}

// rankPolicies mirror DET's, 6Scan's and 6Hit's rankings and updates.
func rankPolicies() map[string]rankPolicy {
	detScore := func(l *TreeNode) float64 { return (float64(l.Hits) + 1) / (float64(l.Probes) + 8) }
	probes := func(l *TreeNode, got int) { l.Probes += got }
	hits := func(l *TreeNode, r ProbeResult) { // the reward DET and 6Scan rank by
		if r.Active {
			l.Hits++
		}
	}
	q := map[*TreeNode]float64{}
	qOf := func(l *TreeNode) float64 {
		if v, ok := q[l]; ok {
			return v
		}
		return 0.5
	}
	batchN, batchH := map[*TreeNode]int{}, map[*TreeNode]int{}
	return map[string]rankPolicy{
		"DET": {
			before: func(a, b *TreeNode) bool {
				if sa, sb := detScore(a), detScore(b); sa != sb {
					return sa > sb
				}
				return len(a.Seeds) > len(b.Seeds)
			},
			took: probes, report: hits, feedback: func() {}, rebuilt: func() {},
		},
		"6Scan": {
			before: func(a, b *TreeNode) bool {
				if a.Hits != b.Hits {
					return a.Hits > b.Hits
				}
				return len(a.Seeds) > len(b.Seeds)
			},
			took: probes, report: hits, feedback: func() {}, rebuilt: func() {},
		},
		"6Hit": {
			before: func(a, b *TreeNode) bool { return qOf(a) > qOf(b) },
			took:   func(l *TreeNode, got int) { batchN[l] += got },
			report: func(l *TreeNode, r ProbeResult) {
				hits(l, r) // which its ranking must not read
				if r.Active {
					batchH[l]++
				}
				l.Probes++
			},
			feedback: func() {
				for l, n := range batchN {
					if n > 0 {
						q[l] = 0.7*qOf(l) + 0.3*float64(batchH[l])/float64(n)
					}
				}
				clear(batchN)
				clear(batchH)
			},
			rebuilt: func() { clear(q) },
		},
	}
}

func TestLeafSearchRankingMatchesStableSort(t *testing.T) {
	seeds := synthSeeds(t, 400)
	// Leaves that never widen run dry, most of them within a few batches.
	neverWiden := func(s *LeafSearch) {
		for i, l := range s.leaves {
			if i%3 != 0 {
				l.gen = newLeafGen(l.Masks, []int{})
			}
		}
	}
	for _, name := range []string{"DET", "6Scan", "6Hit"} {
		for trial := int64(0); trial < 8; trial++ {
			p := rankPolicies()[name]
			rng := rand.New(rand.NewSource(trial))
			s := NewLeafSearch(mustMine(t, seeds, 2, SplitMinEntropy).Leaves(), p.before, p.took)
			neverWiden(s)
			var out [3][]ipaddr.Addr // the last three batches
			var found []ipaddr.Addr
			for step := 0; step < 120; step++ {
				var want []*TreeNode
				for _, l := range s.leaves {
					if !l.dry {
						want = append(want, l)
					}
				}
				sort.SliceStable(want, func(i, j int) bool { return p.before(want[i], want[j]) })

				n := 1 + rng.Intn(300)
				rr := 0
				pick := func(live int) int { return rng.Intn(live) }
				if rng.Intn(2) == 0 {
					pick = func(int) int { rr++; return rr - 1 }
				}
				out = [3][]ipaddr.Addr{s.NextBatch(n, rng.Intn(n+1), 1+rng.Intn(4), pick), out[0], out[1]}
				got := make([]*TreeNode, len(s.ranked))
				for i, li := range s.ranked {
					got[i] = s.leaves[li]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d step %d: ranking of %d live leaves differs from the stable sort of %d", name, trial, step, len(got), len(want))
				}

				switch rng.Intn(8) {
				case 0: // no feedback this round: the next batch follows at once
				case 1: // rebuild around some of what was found
					s.Rebuild(seeds, found[:min(len(found), 100)], 2, SplitMinEntropy)
					neverWiden(s)
					p.rebuilt()
				default: // results for some of what is out, late ones included
					var results []ProbeResult
					for _, a := range slices.Concat(out[:]...) {
						if rng.Intn(4) > 0 {
							r := ProbeResult{Addr: a, Active: rng.Intn(3) == 0}
							if r.Active {
								found = append(found, a)
							}
							results = append(results, r)
						}
					}
					s.Resolve(results, p.report)
					p.feedback()
				}
			}
		}
	}
}
