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

// region is one Expander region a test builds: a pattern, its weight and
// chunk, and whether its enumerator may widen.
type region struct {
	masks    [ipaddr.NybbleCount]ValueMask
	weight   float64
	chunk    int
	noWiden  bool
	produced int
}

// widthRegion is a region of `width` addresses that differ in the last
// nybble and never widen, so it can run dry; every other nybble is v,
// which tells regions apart. Its chunk is floored to minChunk.
func widthRegion(v byte, width int, weight float64) region {
	masks := pinnedMasks(v)
	masks[ipaddr.NybbleCount-1] = 1<<width - 1
	return region{masks: masks, weight: weight, noWiden: true}
}

// newTestExpander starts an expander over regions, with its own state.
func newTestExpander(regions []region) *Expander {
	e := NewExpander(len(regions), func(i int) (*[ipaddr.NybbleCount]ValueMask, float64, int) {
		return &regions[i].masks, regions[i].weight, regions[i].chunk
	})
	e.own()
	e.start()
	for i, r := range regions {
		if r.noWiden {
			setGen(e.st, i, newLeafGen(r.masks, []int{}))
		}
	}
	return e
}

// setGen makes g the enumerator of leaf or region i ahead of its first
// draw.
func setGen(st *schedState, i int, g *leafGen) {
	st.gens = append(st.gens, *g)
	st.cursors[i].gen = int32(len(st.gens))
}

// produced lists what each of e's regions has produced, in index order.
func produced(e *Expander) []int {
	out := make([]int, len(e.st.cursors))
	for i, c := range e.st.cursors {
		out[i] = c.produced
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
	e := newTestExpander([]region{widthRegion(1, 16, 2), widthRegion(2, 16, 2), widthRegion(3, 16, 2)})
	// Equal scores: region 1 first. Then it has produced the most, and the
	// tie between the other two again goes to the lower index.
	for round, want := range []string{"1", "2", "3", "1"} {
		if got := visits(e.AppendBatch(nil, minChunk, minChunk)); got != strings.Repeat(want, minChunk) {
			t.Fatalf("round %d visited %s, want region %s", round, got, want)
		}
	}
}

func TestExpanderSkipsExhaustedRegionsForGood(t *testing.T) {
	e := newTestExpander([]region{
		widthRegion(1, 2, 1000), // two addresses, far the best score
		widthRegion(2, 16, 2),
		widthRegion(2, 16, 0.001), // the same 16 addresses, visited last: nothing fresh to give
	})
	for i, want := range []string{"11" + "22222222", "22222222", ""} {
		if got := visits(e.AppendBatch(nil, 10, 10)); got != want {
			t.Fatalf("batch %d visited %q, want %q", i, got, want)
		}
		if slices.Contains(e.st.order, 0) {
			t.Fatalf("batch %d: exhausted region still in the running", i)
		}
	}
	if want := []int{2, 16, 0}; !reflect.DeepEqual(produced(e), want) {
		t.Fatalf("produced %v, want %v (duplicates do not count)", produced(e), want)
	}
	for i, c := range e.st.cursors {
		if !c.dry || len(e.st.order) != 0 {
			t.Fatalf("region %d still in the running after it ran dry", i)
		}
	}
}

func TestExpanderStartsOnlyVisitedRegions(t *testing.T) {
	// A thousand disjoint regions of sixteen addresses each, in falling
	// weight: a batch of 256 taken 16 at a time visits the first sixteen.
	regions := make([]region, 1000)
	for i := range regions {
		masks := pinnedMasks(2)
		masks[28], masks[29], masks[30], masks[31] = 1<<(i/100), 1<<(i/10%10), 1<<(i%10), 0xffff
		regions[i] = region{masks: masks, weight: float64(len(regions) - i), chunk: 16}
	}
	e := newTestExpander(regions)
	if batch := e.AppendBatch(nil, 256, 16); len(batch) != 256 {
		t.Fatalf("batch of %d", len(batch))
	}
	for i, c := range e.st.cursors {
		if visited := i < 16; (c.gen != 0) != visited || (c.produced > 0) != visited {
			t.Fatalf("region %d: generator started %v, produced %d; want both only for the first 16", i, c.gen != 0, c.produced)
		}
	}
	if len(e.st.gens) != 16 {
		t.Fatalf("%d enumerators in the slab, want the 16 visited regions'", len(e.st.gens))
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
// the emitted set keeps them apart. It is started, with its own state.
func newSearch(t *testing.T) *LeafSearch {
	m := mustMine(t, searchSeeds, 2, SplitMinEntropy)
	if len(m.LeafModels) < 3 {
		t.Fatalf("only %d leaves", len(m.LeafModels))
	}
	m.LeafModels[1].Masks = m.LeafModels[0].Masks
	return startedSearch(NewLeafSearch(m, func(a, b *Cursor) bool { return a.Hits > b.Hits },
		func(c *Cursor, got int) { c.Probes += got }))
}

// startedSearch starts s with its own state, so a test can set cursors up
// before the first batch.
func startedSearch(s *LeafSearch) *LeafSearch {
	s.own()
	s.start()
	return s
}

// propose asks s for a batch of n the way DET does: 60% down the ranking,
// the rest round-robin from its top.
func propose(s *LeafSearch, n int) []ipaddr.Addr {
	i := 0
	return s.AppendBatch(nil, n, n*6/10, n, func(int) int { i++; return i - 1 })
}

func TestLeafSearchNeverProposesTwice(t *testing.T) {
	s := newSearch(t)
	seen := ipaddr.NewSet()
	for round := 0; round < 10; round++ {
		if round == 5 {
			// The same leaves with fresh enumerators, which start over from
			// addresses already proposed.
			s.Rebuild(searchSeeds, 2, SplitMinEntropy)
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
	live := len(s.st.cursors)
	for i := 1; i < live; i++ {
		setGen(s.st, i, newLeafGen(pinnedMasks(byte(i-1)), []int{})) // one address, then dry
	}
	picks := 0
	batch := s.AppendBatch(nil, 100, 0, 2, func(n int) int {
		if n != live {
			t.Fatalf("pick told of %d live leaves, want %d", n, live)
		}
		picks++
		return picks - 1
	})
	// Leaf 0 ranks first (no hits anywhere, so leaf order) and is picked
	// every live-th time; each other leaf answers its first pick and runs
	// dry at its second, which still costs the pick.
	if want := 2 + (live - 1); picks != 2*live || len(batch) != want || s.st.cursors[0].Probes != 2 {
		t.Fatalf("%d picks gave %d addresses (%d from leaf 0), want %d, %d and 2", picks, len(batch), s.st.cursors[0].Probes, 2*live, want)
	}
	for i, c := range s.st.cursors {
		if c.dry != (i > 0) {
			t.Fatalf("leaf %d: dry %v, want dry for every leaf but 0", i, c.dry)
		}
	}
	if got := NewLeafSearch(&TreeModel{}, nil, nil).AppendBatch(nil, 100, 60, 1, nil); got != nil {
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
	drawn := map[*Cursor]bool{}
	s := NewLeafSearch(m, func(a, b *Cursor) bool { return false },
		func(c *Cursor, _ int) { drawn[c] = true })
	if batch := propose(s, 256); len(batch) != 256 {
		t.Fatalf("batch of %d", len(batch))
	}
	started := 0
	for _, c := range s.st.cursors {
		if c.gen != 0 || c.dry {
			started++
		}
	}
	if started > len(drawn) || len(drawn) >= len(s.st.cursors) || len(s.st.gens) != started {
		t.Fatalf("%d of %d leaves started a generator (%d in the slab), %d drawn from", started, len(s.st.cursors), len(s.st.gens), len(drawn))
	}
}

func TestLeafSearchResolveAndRebuild(t *testing.T) {
	s := newSearch(t)
	batch := propose(s, 50)
	stranger := ipaddr.MustParse("2001:db8:ffff::1") // never proposed
	results := []ProbeResult{{Addr: stranger}}
	for i, a := range batch[:25] {
		results = append(results, ProbeResult{Addr: a, Active: i%2 == 0})
	}
	reported := ipaddr.NewSet()
	s.Resolve(results, func(c *Cursor, r ProbeResult) {
		if !reported.Add(r.Addr) {
			t.Fatalf("%v reported twice", r.Addr)
		}
		c.Hits++
	})
	if reported.Len() != 25 || reported.Contains(stranger) {
		t.Fatalf("%d reports for 25 proposals", reported.Len())
	}
	s.Resolve(results, func(*Cursor, ProbeResult) { t.Fatal("a second report for one proposal") })
	hits, probes := 0, 0
	for _, c := range s.st.cursors {
		hits, probes = hits+c.Hits, probes+c.Probes
	}
	if hits != 25 || probes != 50 || len(s.st.pending) != 25 || len(s.st.hits) != 13 {
		t.Fatalf("%d hits, %d probes, %d pending, %d active, want 25, 50, 25, 13", hits, probes, len(s.st.pending), len(s.st.hits))
	}

	// A rebuild folds the active results in beside the seeds, once each,
	// forgets the 25 proposals still out, and keeps all 50 emitted.
	pool := ipaddr.NewSet(searchSeeds...)
	pool.AddAll(s.st.hits)
	s.Rebuild(searchSeeds, 2, SplitMinEntropy)
	total := 0
	for _, c := range s.st.cursors {
		total += c.Seeds
	}
	if total != pool.Len() || total <= len(searchSeeds) {
		t.Fatalf("rebuilt over %d addresses, want %d", total, pool.Len())
	}
	for _, a := range batch {
		results = append(results, ProbeResult{Addr: a})
	}
	s.Resolve(results, func(*Cursor, ProbeResult) { t.Fatal("a proposal outlived the rebuild") })
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
		if len(s.st.pending) > len(batch) {
			t.Fatalf("round %d: %d pending after a batch of %d", round, len(s.st.pending), len(batch))
		}
		for _, a := range batch {
			results = append(results, ProbeResult{Addr: a})
		}
	}
	reported := 0
	s.Resolve(results, func(*Cursor, ProbeResult) { reported++ })
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
		ref := &argmaxExpander{emitted: ipaddr.NewSet()}
		var regions []region
		for r := 1 + rng.Intn(60); r > 0; r-- {
			// Few distinct weights and chunks, so scores tie often; regions
			// overlap (a shared prefix digit), and some never widen, so
			// they run dry.
			masks := pinnedMasks(byte(rng.Intn(4)))
			for k := 0; k < 1+rng.Intn(3); k++ {
				masks[ipaddr.NybbleCount-1-rng.Intn(6)] = ValueMask(1 + rng.Intn(0xffff))
			}
			weight := []float64{0.5, 1, 2, 3, 1.5}[rng.Intn(5)]
			chunk := rng.Intn(20)
			noWiden := rng.Intn(3) > 0
			regions = append(regions, region{masks: masks, weight: weight, chunk: chunk, noWiden: noWiden})
			ref.weight = append(ref.weight, weight)
			ref.chunk = append(ref.chunk, max(minChunk, chunk))
			ref.produced = append(ref.produced, 0)
			ref.gens = append(ref.gens, newLeafGen(masks, nil))
			if noWiden {
				ref.gens[len(ref.gens)-1].nOrder = 0
			}
		}
		e := newTestExpander(regions)
		for batch := 0; batch < 30; batch++ {
			n, maxChunk := 1+rng.Intn(200), 1+rng.Intn(40)
			got, want := e.AppendBatch(nil, n, maxChunk), ref.nextBatch(n, maxChunk)
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
	before   func(a, b *Cursor) bool
	took     func(l *Cursor, got int)
	report   func(l *Cursor, r ProbeResult)
	feedback func() // after Resolve
	rebuilt  func()
}

// rankPolicies mirror DET's, 6Scan's and 6Hit's rankings and updates.
func rankPolicies() map[string]rankPolicy {
	detScore := func(l *Cursor) float64 { return (float64(l.Hits) + 1) / (float64(l.Probes) + 8) }
	probes := func(l *Cursor, got int) { l.Probes += got }
	hits := func(l *Cursor, r ProbeResult) { // the reward DET and 6Scan rank by
		if r.Active {
			l.Hits++
		}
	}
	q := map[*Cursor]float64{}
	qOf := func(l *Cursor) float64 {
		if v, ok := q[l]; ok {
			return v
		}
		return 0.5
	}
	batchN, batchH := map[*Cursor]int{}, map[*Cursor]int{}
	return map[string]rankPolicy{
		"DET": {
			before: func(a, b *Cursor) bool {
				if sa, sb := detScore(a), detScore(b); sa != sb {
					return sa > sb
				}
				return a.Seeds > b.Seeds
			},
			took: probes, report: hits, feedback: func() {}, rebuilt: func() {},
		},
		"6Scan": {
			before: func(a, b *Cursor) bool {
				if a.Hits != b.Hits {
					return a.Hits > b.Hits
				}
				return a.Seeds > b.Seeds
			},
			took: probes, report: hits, feedback: func() {}, rebuilt: func() {},
		},
		"6Hit": {
			before: func(a, b *Cursor) bool { return qOf(a) > qOf(b) },
			took:   func(l *Cursor, got int) { batchN[l] += got },
			report: func(l *Cursor, r ProbeResult) {
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
			// The rebuilt tree's leaves start over: its cursors reuse the
			// slab, so keys of the old tree's leaves would name new ones.
			rebuilt: func() {
				clear(q)
				clear(batchN)
				clear(batchH)
			},
		},
	}
}

func TestLeafSearchRankingMatchesStableSort(t *testing.T) {
	seeds := synthSeeds(t, 400)
	// Leaves that never widen run dry, most of them within a few batches.
	neverWiden := func(s *LeafSearch) {
		for i := range s.st.cursors {
			if i%3 != 0 {
				setGen(s.st, i, newLeafGen(s.model.LeafModels[i].Masks, []int{}))
			}
		}
	}
	for _, name := range []string{"DET", "6Scan", "6Hit"} {
		for trial := int64(0); trial < 8; trial++ {
			p := rankPolicies()[name]
			rng := rand.New(rand.NewSource(trial))
			s := startedSearch(NewLeafSearch(mustMine(t, seeds, 2, SplitMinEntropy), p.before, p.took))
			neverWiden(s)
			var out [3][]ipaddr.Addr // the last three batches
			for step := 0; step < 120; step++ {
				var want []*Cursor
				for i := range s.st.cursors {
					if c := &s.st.cursors[i]; !c.dry {
						want = append(want, c)
					}
				}
				sort.SliceStable(want, func(i, j int) bool { return p.before(want[i], want[j]) })

				n := 1 + rng.Intn(300)
				rr := 0
				pick := func(live int) int { return rng.Intn(live) }
				if rng.Intn(2) == 0 {
					pick = func(int) int { rr++; return rr - 1 }
				}
				out = [3][]ipaddr.Addr{s.AppendBatch(nil, n, rng.Intn(n+1), 1+rng.Intn(4), pick), out[0], out[1]}
				got := make([]*Cursor, len(s.st.order))
				for i, li := range s.st.order {
					got[i] = &s.st.cursors[li]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d step %d: ranking of %d live leaves differs from the stable sort of %d", name, trial, step, len(got), len(want))
				}

				switch rng.Intn(8) {
				case 0: // no feedback this round: the next batch follows at once
				case 1: // rebuild around the hits reported so far
					s.Rebuild(seeds, 2, SplitMinEntropy)
					neverWiden(s)
					p.rebuilt()
				default: // results for some of what is out, late ones included
					var results []ProbeResult
					for _, a := range slices.Concat(out[:]...) {
						if rng.Intn(4) > 0 {
							results = append(results, ProbeResult{Addr: a, Active: rng.Intn(3) == 0})
						}
					}
					s.Resolve(results, p.report)
					p.feedback()
				}
			}
		}
	}
}
