package tga

import (
	"cmp"
	"slices"

	"seedscan/internal/ipaddr"
)

// minChunk is the least an Expander draws from a region per visit, so that
// one-seed regions still get more than a glance.
const minChunk = 8

// Expander is a deterministic proportional-share scheduler over pattern
// regions: each visit goes to the region with the highest weight per
// address already produced, takes a chunk from its enumerator, and drops
// what another region already proposed (regions widen into each other).
// It records what it proposed in a set of its own, or in the run's
// candidate set once ShareCandidates hands it one.
type Expander struct {
	regions []region
	// heap holds the regions still in the running as a max-heap in visit
	// order (before). A visit only lowers the visited region's score, so
	// the root is sifted down after each visit, or removed when its
	// enumerator runs dry.
	heap    []int32
	emitted *ipaddr.Set
}

// region is one pattern region of an Expander. Its masks are the caller's,
// read-only; its enumerator starts at the region's first visit, over
// those masks, and is dropped when it runs dry.
type region struct {
	masks    *[ipaddr.NybbleCount]ValueMask
	gen      *leafGen
	weight   float64
	chunk    int
	produced int
}

// NewExpander returns an expander with room for the given number of
// regions.
func NewExpander(regions int) *Expander {
	return &Expander{
		regions: make([]region, 0, regions),
		heap:    make([]int32, 0, regions),
		emitted: ipaddr.NewSet(),
	}
}

// Add appends a region: the pattern it enumerates, which must stay
// unchanged while the expander runs, its positive weight, and how many
// addresses a visit takes (at least minChunk). Regions are visited in Add
// order when their scores tie.
func (e *Expander) Add(masks *[ipaddr.NybbleCount]ValueMask, weight float64, chunk int) {
	e.regions = append(e.regions, region{masks: masks, weight: weight, chunk: max(minChunk, chunk)})
	if weight > 0 {
		e.heap = append(e.heap, int32(len(e.regions)-1))
		heapUp(e.heap, len(e.heap)-1, e.before)
	}
}

// Len reports the number of regions added.
func (e *Expander) Len() int { return len(e.regions) }

// ShareCandidates makes the expander check and record its proposals in
// set, the run's candidate set, from the next batch on. It must come
// before the first batch.
func (e *Expander) ShareCandidates(set *ipaddr.Set) { e.emitted = set }

// NextBatch returns up to n fresh addresses, no visit taking more than
// maxChunk. Fewer than n means every region is exhausted.
func (e *Expander) NextBatch(n, maxChunk int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, n)
	for len(out) < n && len(e.heap) > 0 {
		r := &e.regions[e.heap[0]]
		if r.gen == nil {
			r.gen = newLeafGen(*r.masks, nil)
		}
		chunk := min(r.chunk, maxChunk)
		got := 0
		for got < chunk && len(out) < n {
			a, ok := r.gen.Next()
			if !ok {
				r.gen = nil
				break
			}
			if e.emitted.Add(a) {
				out = append(out, a)
				got++
			}
		}
		r.produced += got
		if r.gen == nil {
			e.heap = heapPop(e.heap, e.before)
		} else {
			heapDown(e.heap, 0, e.before)
		}
	}
	return out
}

// before is the visit order: the higher weight/(produced+1) first, the
// lower index on ties — the region a strict-> linear argmax would pick.
func (e *Expander) before(i, j int32) bool {
	ri, rj := &e.regions[i], &e.regions[j]
	si, sj := ri.weight/float64(ri.produced+1), rj.weight/float64(rj.produced+1)
	if si != sj {
		return si > sj
	}
	return i < j
}

// heapUp, heapDown and heapPop keep h a binary heap of indices under
// before: h[0] is the index no other ranks before, and what the indices
// name lives with the caller. heapUp restores the heap after h[k] rose in
// the order or was appended, heapDown after it fell, and heapPop removes
// the root and returns the shortened heap.
func heapUp(h []int32, k int, before func(a, b int32) bool) {
	for k > 0 {
		p := (k - 1) / 2
		if !before(h[k], h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func heapDown(h []int32, k int, before func(a, b int32) bool) {
	for {
		kid := 2*k + 1
		if kid >= len(h) {
			return
		}
		if r := kid + 1; r < len(h) && before(h[r], h[kid]) {
			kid = r
		}
		if !before(h[kid], h[k]) {
			return
		}
		h[k], h[kid] = h[kid], h[k]
		k = kid
	}
}

func heapPop(h []int32, before func(a, b int32) bool) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	heapDown(h, 0, before)
	return h
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
// DET, 6Hit and 6Scan have in common: the ranking of the live leaves, which
// leaf proposed each candidate still awaiting its probe result, the set of
// everything ever proposed (its own, or the run's candidate set once
// ShareCandidates hands it one; nothing is proposed twice, across leaves or
// across rebuilds), the exploit-then-explore batch, and the rebuild around
// discovered hits.
//
// The ranking is a stable sort of the live leaves by the generator's
// comparison, ties in leaf order, and it is kept from batch to batch: only
// the leaves whose key may have moved are re-keyed, sorted among
// themselves and merged back into the rest. So a generator's comparison
// may read only what changes when the search draws from a leaf (the took
// callback), when Resolve reports it, or — for a leaf drawn since the
// previous Resolve — during the Feedback that calls Resolve.
type LeafSearch struct {
	leaves  []*TreeNode
	before  func(a, b *TreeNode) bool
	took    func(l *TreeNode, got int)
	pending map[ipaddr.Addr]int32 // the proposing leaf's index
	emitted *ipaddr.Set

	ranked []int32 // live leaf indices, best first, as of the last ranking
	spare  []int32 // the next ranking's buffer
	moved  []int32 // leaves to re-key at the next ranking
	drawn  []int32 // leaves drawn from since the last Resolve
	mark   []uint8 // per leaf: inMoved, inDrawn
	out    []ipaddr.Addr
}

const (
	inMoved = 1 << iota
	inDrawn
)

// NewLeafSearch starts a search over leaves, ranked by before (a strict
// order: a ranks above b). took is told how many fresh candidates each draw
// got from a leaf — where a generator counts probes at proposal time.
func NewLeafSearch(leaves []*TreeNode, before func(a, b *TreeNode) bool, took func(l *TreeNode, got int)) *LeafSearch {
	s := &LeafSearch{before: before, took: took, emitted: ipaddr.NewSet()}
	s.reset(leaves)
	return s
}

// ShareCandidates makes the search check and record its proposals in set,
// the run's candidate set, instead of its own, from the next batch on. It
// must come before the first batch.
func (s *LeafSearch) ShareCandidates(set *ipaddr.Set) { s.emitted = set }

// reset searches leaves from now on, every one of them still to be ranked.
func (s *LeafSearch) reset(leaves []*TreeNode) {
	s.leaves = leaves
	s.pending = make(map[ipaddr.Addr]int32)
	s.ranked, s.drawn = s.ranked[:0], s.drawn[:0]
	s.moved = make([]int32, len(leaves))
	s.mark = make([]uint8, len(leaves))
	for i := range leaves {
		s.moved[i] = int32(i)
		s.mark[i] = inMoved
	}
}

// touch queues leaf i for re-keying at the next ranking and, when drawn,
// again after the next Resolve.
func (s *LeafSearch) touch(i int32, drawn bool) {
	if s.mark[i]&inMoved == 0 {
		s.mark[i] |= inMoved
		s.moved = append(s.moved, i)
	}
	if drawn && s.mark[i]&inDrawn == 0 {
		s.mark[i] |= inDrawn
		s.drawn = append(s.drawn, i)
	}
}

// rank brings the ranking up to date: the moved leaves still live are
// sorted among themselves and merged into the unmoved rest, which is
// already in order. The result is the stable sort of the live leaves.
func (s *LeafSearch) rank() {
	rest := s.ranked[:0]
	for _, i := range s.ranked {
		if s.mark[i]&inMoved == 0 {
			rest = append(rest, i)
		}
	}
	moved := s.moved[:0]
	for _, i := range s.moved {
		s.mark[i] &^= inMoved
		if !s.leaves[i].dry {
			moved = append(moved, i)
		}
	}
	slices.SortFunc(moved, s.order)
	next := slices.Grow(s.spare[:0], len(rest)+len(moved))
	for _, i := range moved {
		k, _ := slices.BinarySearchFunc(rest, i, s.order)
		next = append(append(next, rest[:k]...), i)
		rest = rest[k:]
	}
	s.spare, s.ranked = s.ranked, append(next, rest...)
	s.moved = moved[:0]
}

// order compares leaves i and j by rank: the generator's comparison, then
// leaf order.
func (s *LeafSearch) order(i, j int32) int {
	a, b := s.leaves[i], s.leaves[j]
	switch {
	case s.before(a, b):
		return -1
	case s.before(b, a):
		return 1
	}
	return cmp.Compare(i, j)
}

// take draws up to k never-proposed addresses from leaf i into the batch
// and remembers i as their proposer. The leaf's generator starts at its
// first draw; a leaf that runs dry is marked so.
func (s *LeafSearch) take(i int32, k int) int {
	l := s.leaves[i]
	if l.gen == nil {
		l.gen = newLeafGen(l.Masks, nil)
	}
	got := 0
	for got < k {
		a, ok := l.gen.Next()
		if !ok {
			l.gen, l.dry = nil, true
			break
		}
		if s.emitted.Add(a) {
			s.out = append(s.out, a)
			s.pending[a] = i
			got++
		}
	}
	s.touch(i, true)
	s.took(l, got)
	return got
}

// NextBatch ranks the live leaves and proposes up to n addresses from
// them: the first `exploit` in geometric shares from the top of the
// ranking, then one at a time from the leaf at rank pick(live) % live
// until the batch is full or picksPerLeaf·live picks are made; a leaf
// exhausted since the ranking costs a pick but no address. Proposals of
// the previous batch still pending are forgotten: the driver runs in
// lockstep, so whatever its Resolve did not report (seeds, budget
// overflow, a run without a prober) never will be.
func (s *LeafSearch) NextBatch(n, exploit, picksPerLeaf int, pick func(live int) int) []ipaddr.Addr {
	clear(s.pending)
	s.rank()
	live := len(s.ranked)
	if live == 0 {
		return nil
	}
	s.out = make([]ipaddr.Addr, 0, n)
	GeometricShares(s.ranked, exploit, s.take)
	for tries := picksPerLeaf * live; len(s.out) < n && tries > 0; tries-- {
		if i := s.ranked[pick(live)%live]; !s.leaves[i].dry {
			s.take(i, 1)
		}
	}
	out := s.out
	s.out = nil
	return out
}

// Resolve hands each probe result to report together with the leaf that
// proposed its address, once. Only the latest batch resolves: results for
// addresses it did not propose, or already resolved, are skipped.
func (s *LeafSearch) Resolve(results []ProbeResult, report func(l *TreeNode, r ProbeResult)) {
	// The caller may re-key what it drew since the last Resolve once this
	// returns (6Hit's per-round Q update).
	for _, i := range s.drawn {
		s.mark[i] &^= inDrawn
		s.touch(i, false)
	}
	s.drawn = s.drawn[:0]
	for _, r := range results {
		i, ok := s.pending[r.Addr]
		if !ok {
			continue
		}
		delete(s.pending, r.Addr)
		s.touch(i, false)
		report(s.leaves[i], r)
	}
}

// Rebuild regrows the tree over seeds ∪ hits and searches its leaves from
// now on, ranked afresh. Candidates still awaiting results are forgotten
// with the leaves that proposed them; what was emitted stays emitted.
func (s *LeafSearch) Rebuild(seeds, hits []ipaddr.Addr, minLeaf int, h SplitHeuristic) {
	pool := ipaddr.NewSet(seeds...)
	pool.AddAll(hits)
	s.reset(mineTree(pool.Slice(), minLeaf, h).Leaves())
}
