package tga

import "seedscan/internal/ipaddr"

// minChunk is the least an Expander draws from a region per visit, so that
// one-seed regions still get more than a glance.
const minChunk = 8

// Expander is a deterministic proportional-share scheduler over pattern
// regions: each visit goes to the region with the highest weight per
// address already produced, takes a chunk from its enumerator, and drops
// what another region already proposed (regions widen into each other).
type Expander struct {
	// weight, chunk, produced and gens are parallel, one entry per region.
	// A region's weight is zeroed when its enumerator runs dry, which takes
	// it out of the running: live weights are positive, so any live score
	// beats the 0 the search for the best starts from.
	weight   []float64
	chunk    []int
	produced []int
	gens     []LeafGen
	emitted  *ipaddr.Set
}

// NewExpander returns an expander with room for the given number of
// regions, expecting to emit about capHint addresses.
func NewExpander(regions, capHint int) *Expander {
	return &Expander{
		weight:   make([]float64, 0, regions),
		chunk:    make([]int, 0, regions),
		produced: make([]int, 0, regions),
		gens:     make([]LeafGen, 0, regions),
		emitted:  ipaddr.NewSetCap(capHint),
	}
}

// Add appends a region: the pattern it enumerates, its positive weight,
// and how many addresses a visit takes (at least minChunk). Regions are
// visited in Add order when their scores tie.
func (e *Expander) Add(masks [ipaddr.NybbleCount]ValueMask, weight float64, chunk int) {
	e.weight = append(e.weight, weight)
	e.chunk = append(e.chunk, max(minChunk, chunk))
	e.produced = append(e.produced, 0)
	e.gens = append(e.gens, LeafGen{})
	e.gens[len(e.gens)-1].start(masks)
}

// Len reports the number of regions added.
func (e *Expander) Len() int { return len(e.gens) }

// NextBatch returns up to n fresh addresses, no visit taking more than
// maxChunk. Fewer than n means every region is exhausted.
func (e *Expander) NextBatch(n, maxChunk int) []ipaddr.Addr {
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
		gen := &e.gens[best]
		chunk := min(e.chunk[best], maxChunk)
		got := 0
		for got < chunk && len(out) < n {
			a, ok := gen.Next()
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

// GeometricShares spends budget down a ranked list: half to the first
// entry, a quarter to the next, and so on, never less than one and never
// past the budget, until the budget or the list runs out. take(x, k) draws
// up to k from x and reports how many it got.
func GeometricShares[T any](ranked []T, budget int, take func(x T, k int) int) {
	spent := 0
	share := budget / 2
	for _, x := range ranked {
		if spent >= budget {
			break
		}
		share = min(max(share, 1), budget-spent)
		spent += take(x, share)
		share /= 2
	}
}

// LeafSearch is the online search over a space tree's leaves. It owns what
// DET, 6Hit and 6Scan have in common: which leaf proposed each candidate
// still awaiting its probe result, the set of everything ever proposed (so
// nothing is proposed twice, across leaves or across rebuilds), the
// exploit-then-explore batch, and the rebuild around discovered hits.
type LeafSearch struct {
	leaves  []*TreeNode
	pending map[ipaddr.Addr]*TreeNode
	emitted *ipaddr.Set
	took    func(l *TreeNode, got int)
	out     []ipaddr.Addr // the batch under construction
}

// NewLeafSearch starts a search over leaves, expecting to emit about
// capHint addresses. took is told how many fresh candidates each draw got
// from a leaf — where a generator counts probes at proposal time.
func NewLeafSearch(leaves []*TreeNode, capHint int, took func(l *TreeNode, got int)) *LeafSearch {
	return &LeafSearch{
		leaves:  leaves,
		pending: make(map[ipaddr.Addr]*TreeNode),
		emitted: ipaddr.NewSetCap(capHint),
		took:    took,
	}
}

// Live returns the leaves that can still produce, in leaf order, as a
// fresh slice for the caller to rank.
func (s *LeafSearch) Live() []*TreeNode {
	live := make([]*TreeNode, 0, len(s.leaves))
	for _, l := range s.leaves {
		if l.Gen != nil {
			live = append(live, l)
		}
	}
	return live
}

// take draws up to k never-proposed addresses from l into the batch and
// remembers l as their proposer. A leaf that runs dry is marked exhausted.
func (s *LeafSearch) take(l *TreeNode, k int) int {
	got := 0
	for got < k {
		a, ok := l.Gen.Next()
		if !ok {
			l.Gen = nil
			break
		}
		if s.emitted.Add(a) {
			s.out = append(s.out, a)
			s.pending[a] = l
			got++
		}
	}
	s.took(l, got)
	return got
}

// NextBatch proposes up to n addresses from the ranked live leaves: the
// first `exploit` in geometric shares from the top of the ranking, then one
// at a time from ranked[pick() % len(ranked)] until the batch is full or
// `tries` picks are made; an exhausted leaf costs a pick but no address.
func (s *LeafSearch) NextBatch(n int, ranked []*TreeNode, exploit, tries int, pick func() int) []ipaddr.Addr {
	if len(ranked) == 0 {
		return nil
	}
	s.out = make([]ipaddr.Addr, 0, n)
	GeometricShares(ranked, exploit, s.take)
	for ; len(s.out) < n && tries > 0; tries-- {
		if l := ranked[pick()%len(ranked)]; l.Gen != nil {
			s.take(l, 1)
		}
	}
	out := s.out
	s.out = nil
	return out
}

// Resolve hands each probe result to report together with the leaf that
// proposed its address, once: results for addresses the search did not
// propose, or already resolved, are skipped.
func (s *LeafSearch) Resolve(results []ProbeResult, report func(l *TreeNode, r ProbeResult)) {
	for _, r := range results {
		l, ok := s.pending[r.Addr]
		if !ok {
			continue
		}
		delete(s.pending, r.Addr)
		report(l, r)
	}
}

// Rebuild regrows the tree over seeds ∪ hits and searches its leaves from
// now on. Candidates still awaiting results are forgotten with the leaves
// that proposed them; what was emitted stays emitted.
func (s *LeafSearch) Rebuild(seeds, hits []ipaddr.Addr, minLeaf int, h SplitHeuristic) {
	pool := ipaddr.NewSet(seeds...)
	pool.AddAll(hits)
	s.leaves = BuildTreeAuto(pool.Slice(), minLeaf, h).Leaves()
	s.pending = make(map[ipaddr.Addr]*TreeNode)
}
