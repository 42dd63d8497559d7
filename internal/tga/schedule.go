package tga

import (
	"cmp"
	"slices"

	"seedscan/internal/ipaddr"
)

// minChunk is the least an Expander draws from a region per visit, so that
// one-seed regions still get more than a glance.
const minChunk = 8

// Cursor is a run's place in one leaf or region of a mined model: the
// model stays read-only and shared, and a scheduler keeps one cursor per
// leaf or region in one flat slab, indexed by leaf or region number. A
// cursor holds the region's enumeration state (started at its first draw,
// in the run state's enumerator slab), what it produced, whether it ran
// dry, and the online counters adaptive generators rank by.
type Cursor struct {
	// Seeds is how many seeds mined the leaf (LeafSearch; 0 for an
	// Expander region).
	Seeds int
	// Online statistics, updated by adaptive generators.
	Probes int
	Hits   int

	masks    *[ipaddr.NybbleCount]ValueMask // the model's, read-only
	weight   float64                        // Expander: the region's weight
	chunk    int                            // Expander: addresses per visit
	produced int                            // Expander: addresses produced
	gen      int32                          // 1 + the enumerator's index in schedState.gens; 0 before the first draw
	dry      bool
}

// schedState is a scheduler's run state: the cursor slab, the enumerators
// of the regions drawn from, the ranking buffers (LeafSearch) or the
// region heap (Expander), the proposals awaiting their probe result and
// the raw hits Resolve reported. The driver lends it from its run scratch
// (Scratch), so a warm run allocates none of it; a scheduler run outside
// the driver allocates its own.
type schedState struct {
	cursors []Cursor
	gens    []leafGen
	order   []int32 // LeafSearch: live leaves, best first; Expander: the heap
	spare   []int32 // LeafSearch: the next ranking's buffer
	moved   []int32 // LeafSearch: leaves to re-key at the next ranking
	drawn   []int32 // LeafSearch: leaves drawn from since the last Resolve
	mark    []uint8 // LeafSearch, per leaf: inMoved, inDrawn
	pending map[ipaddr.Addr]int32
	hits    []ipaddr.Addr
}

// reset empties st for a run over n leaves or regions, every cursor
// zeroed, keeping its storage. The raw hits are the run's and outlive a
// rebuild, so only empty drops them.
func (st *schedState) reset(n int) {
	st.cursors = slices.Grow(st.cursors[:0], n)[:n]
	clear(st.cursors)
	// Every region may be drawn from, so the enumerator slab gets room for
	// all of them at once rather than growing by doubling mid-run.
	st.gens = slices.Grow(st.gens[:0], n)
	st.order, st.spare, st.moved, st.drawn = st.order[:0], st.spare[:0], st.moved[:0], st.drawn[:0]
	st.mark = slices.Grow(st.mark[:0], n)[:n]
	clear(st.mark)
	clear(st.pending)
}

// empty empties st for a new run.
func (st *schedState) empty() {
	st.reset(0)
	st.hits = st.hits[:0]
}

// entries is the most entries st holds in any one buffer, for the
// recycling policy (memo.FreeList.Recycle).
func (st *schedState) entries() int {
	return max(cap(st.cursors), cap(st.gens), cap(st.order), cap(st.spare), cap(st.moved),
		cap(st.drawn), cap(st.mark), len(st.pending), cap(st.hits))
}

// next returns the next fresh address of cursor c's region, starting its
// enumerator at the first draw, or false when the region ran dry.
func (st *schedState) next(c *Cursor) (ipaddr.Addr, bool) {
	if c.gen == 0 {
		st.gens = append(st.gens, leafGen{})
		c.gen = int32(len(st.gens))
		st.gens[c.gen-1].start(c.masks)
	}
	return st.gens[c.gen-1].Next()
}

// lender is what a scheduler shares about its run state: whose it is,
// whether it is started for the run's leaves or regions, and the set its
// proposals are checked against and recorded in.
type lender struct {
	st      *schedState
	emitted *ipaddr.Set
	started bool
	spent   bool // the driver took its scratch back
}

// lend adopts sc's scheduler state and candidate set, or drops them when
// sc is nil: the run is over, and a later batch panics rather than write
// into state another run holds.
func (l *lender) lend(sc *Scratch) {
	if sc == nil {
		*l = lender{spent: true}
		return
	}
	l.st, l.emitted, l.started = &sc.sched, sc.Candidates(), false
	l.st.empty()
}

// own makes sure the scheduler has run state: what was lent, or its own
// for a run outside the driver.
func (l *lender) own() {
	if l.spent {
		panic("tga: scheduler used after the driver took its scratch back")
	}
	if l.st == nil {
		l.st, l.emitted = new(schedState), ipaddr.NewSet()
	}
}

// Expander is a deterministic proportional-share scheduler over pattern
// regions: each visit goes to the region with the highest weight per
// address already produced, takes a chunk from its enumerator, and drops
// what another region already proposed (regions widen into each other).
// It records what it proposed in a set of its own, or in the run's
// candidate set once Lend hands it the driver's scratch.
type Expander struct {
	lender
	n      int
	region func(i int) (masks *[ipaddr.NybbleCount]ValueMask, weight float64, chunk int)
}

// NewExpander returns an expander over n regions, visited in index order
// when their scores tie. region(i) describes region i: the pattern it
// enumerates, which must stay unchanged while the expander runs, its
// weight (a region of weight 0 or less is never visited), and how many
// addresses a visit takes (at least minChunk). It is called when the
// expander starts, at its first batch.
func NewExpander(n int, region func(i int) (masks *[ipaddr.NybbleCount]ValueMask, weight float64, chunk int)) *Expander {
	return &Expander{n: n, region: region}
}

// Len reports the number of regions.
func (e *Expander) Len() int { return e.n }

// Lend makes the expander keep its run state in sc and check and record
// its proposals in sc's candidate set; Lend(nil) takes them back at the
// end of the run. It must come before the first batch.
func (e *Expander) Lend(sc *Scratch) { e.lend(sc) }

// start fills the cursor slab from the regions and heaps the ones in the
// running.
func (e *Expander) start() {
	e.started = true
	st := e.st
	st.reset(e.n)
	for i := range st.cursors {
		c := &st.cursors[i]
		var chunk int
		c.masks, c.weight, chunk = e.region(i)
		c.chunk = max(minChunk, chunk)
		if c.weight > 0 {
			st.order = append(st.order, int32(i))
			heapUp(st.order, len(st.order)-1, e.before)
		}
	}
}

// AppendBatch appends up to n fresh addresses to dst and returns it, no
// visit taking more than maxChunk. Fewer than n means every region is
// exhausted.
func (e *Expander) AppendBatch(dst []ipaddr.Addr, n, maxChunk int) []ipaddr.Addr {
	if e.own(); !e.started {
		e.start()
	}
	st := e.st
	want := len(dst) + n
	for len(dst) < want && len(st.order) > 0 {
		c := &st.cursors[st.order[0]]
		chunk := min(c.chunk, maxChunk)
		got := 0
		for got < chunk && len(dst) < want {
			a, ok := st.next(c)
			if !ok {
				c.dry = true
				break
			}
			if e.emitted.Add(a) {
				dst = append(dst, a)
				got++
			}
		}
		c.produced += got
		if c.dry {
			st.order = heapPop(st.order, e.before)
		} else {
			heapDown(st.order, 0, e.before)
		}
	}
	return dst
}

// before is the visit order: the higher weight/(produced+1) first, the
// lower index on ties — the region a strict-> linear argmax would pick.
func (e *Expander) before(i, j int32) bool {
	ri, rj := &e.st.cursors[i], &e.st.cursors[j]
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
// everything ever proposed (its own, or the run's candidate set once Lend
// hands it the driver's scratch; nothing is proposed twice, across leaves
// or across rebuilds), the active addresses among the results, the
// exploit-then-explore batch, and the rebuild around those hits.
//
// The ranking is a stable sort of the live leaves by the generator's
// comparison, ties in leaf order, and it is kept from batch to batch: only
// the leaves whose key may have moved are re-keyed, sorted among
// themselves and merged back into the rest. So a generator's comparison
// may read only what changes when the search draws from a leaf (the took
// callback), when Resolve reports it, or — for a leaf drawn since the
// previous Resolve — during the Feedback that calls Resolve.
type LeafSearch struct {
	lender
	model  *TreeModel // the leaves: the mined model, or the run's rebuilt tree
	before func(a, b *Cursor) bool
	took   func(c *Cursor, got int)
}

const (
	inMoved = 1 << iota
	inDrawn
)

// NewLeafSearch starts a search over the leaves of m, which it only reads,
// ranked by before (a strict order: a ranks above b). took is told how
// many fresh candidates each draw got from a leaf — where a generator
// counts probes at proposal time.
func NewLeafSearch(m *TreeModel, before func(a, b *Cursor) bool, took func(c *Cursor, got int)) *LeafSearch {
	return &LeafSearch{model: m, before: before, took: took}
}

// Lend makes the search keep its run state in sc and check and record its
// proposals in sc's candidate set; Lend(nil) takes them back at the end of
// the run. It must come before the first batch.
func (s *LeafSearch) Lend(sc *Scratch) { s.lend(sc) }

// start searches the model's leaves from now on, every one of them still
// to be ranked.
func (s *LeafSearch) start() {
	s.started = true
	st := s.st
	st.reset(len(s.model.LeafModels))
	if st.pending == nil {
		st.pending = make(map[ipaddr.Addr]int32)
	}
	for i := range st.cursors {
		l := &s.model.LeafModels[i]
		st.cursors[i].masks, st.cursors[i].Seeds = &l.Masks, len(l.Seeds)
		st.moved = append(st.moved, int32(i))
		st.mark[i] = inMoved
	}
}

// touch queues leaf i for re-keying at the next ranking and, when drawn,
// again after the next Resolve.
func (s *LeafSearch) touch(i int32, drawn bool) {
	st := s.st
	if st.mark[i]&inMoved == 0 {
		st.mark[i] |= inMoved
		st.moved = append(st.moved, i)
	}
	if drawn && st.mark[i]&inDrawn == 0 {
		st.mark[i] |= inDrawn
		st.drawn = append(st.drawn, i)
	}
}

// rank brings the ranking up to date: the moved leaves still live are
// sorted among themselves and merged into the unmoved rest, which is
// already in order. The result is the stable sort of the live leaves.
func (s *LeafSearch) rank() {
	st := s.st
	rest := st.order[:0]
	for _, i := range st.order {
		if st.mark[i]&inMoved == 0 {
			rest = append(rest, i)
		}
	}
	moved := st.moved[:0]
	for _, i := range st.moved {
		st.mark[i] &^= inMoved
		if !st.cursors[i].dry {
			moved = append(moved, i)
		}
	}
	slices.SortFunc(moved, s.order)
	next := slices.Grow(st.spare[:0], len(rest)+len(moved))
	for _, i := range moved {
		k, _ := slices.BinarySearchFunc(rest, i, s.order)
		next = append(append(next, rest[:k]...), i)
		rest = rest[k:]
	}
	st.spare, st.order = st.order, append(next, rest...)
	st.moved = moved[:0]
}

// order compares leaves i and j by rank: the generator's comparison, then
// leaf order.
func (s *LeafSearch) order(i, j int32) int {
	a, b := &s.st.cursors[i], &s.st.cursors[j]
	switch {
	case s.before(a, b):
		return -1
	case s.before(b, a):
		return 1
	}
	return cmp.Compare(i, j)
}

// take draws up to k never-proposed addresses from leaf i onto dst and
// remembers i as their proposer. The leaf's enumerator starts at its first
// draw; a leaf that runs dry is marked so.
func (s *LeafSearch) take(dst []ipaddr.Addr, i int32, k int) ([]ipaddr.Addr, int) {
	st := s.st
	c := &st.cursors[i]
	got := 0
	for got < k {
		a, ok := st.next(c)
		if !ok {
			c.dry = true
			break
		}
		if s.emitted.Add(a) {
			dst = append(dst, a)
			st.pending[a] = i
			got++
		}
	}
	s.touch(i, true)
	s.took(c, got)
	return dst, got
}

// AppendBatch ranks the live leaves and appends up to n addresses from
// them to dst: the first `exploit` in geometric shares from the top of the
// ranking, then one at a time from the leaf at rank pick(live) % live
// until n are appended or picksPerLeaf·live picks are made; a leaf
// exhausted since the ranking costs a pick but no address. Proposals of
// the previous batch still pending are forgotten: the driver runs in
// lockstep, so whatever its Resolve did not report (seeds, budget
// overflow, a run without a prober) never will be.
func (s *LeafSearch) AppendBatch(dst []ipaddr.Addr, n, exploit, picksPerLeaf int, pick func(live int) int) []ipaddr.Addr {
	if s.own(); !s.started {
		s.start()
	}
	st := s.st
	clear(st.pending)
	s.rank()
	live := len(st.order)
	if live == 0 {
		return dst
	}
	want := len(dst) + n
	GeometricShares(st.order, exploit, func(i int32, k int) (got int) {
		dst, got = s.take(dst, i, k)
		return got
	})
	for tries := picksPerLeaf * live; len(dst) < want && tries > 0; tries-- {
		if i := st.order[pick(live)%live]; !st.cursors[i].dry {
			dst, _ = s.take(dst, i, 1)
		}
	}
	return dst
}

// Resolve hands each probe result to report together with the cursor of
// the leaf that proposed its address, once, and keeps the active ones as
// the hits Rebuild folds in. Only the latest batch resolves: results for
// addresses it did not propose, or already resolved, are skipped.
func (s *LeafSearch) Resolve(results []ProbeResult, report func(c *Cursor, r ProbeResult)) {
	st := s.st
	if st == nil {
		return // nothing was proposed
	}
	// The caller may re-key what it drew since the last Resolve once this
	// returns (6Hit's per-round Q update).
	for _, i := range st.drawn {
		st.mark[i] &^= inDrawn
		s.touch(i, false)
	}
	st.drawn = st.drawn[:0]
	for _, r := range results {
		i, ok := st.pending[r.Addr]
		if !ok {
			continue
		}
		delete(st.pending, r.Addr)
		s.touch(i, false)
		if r.Active {
			st.hits = append(st.hits, r.Addr)
		}
		report(&st.cursors[i], r)
	}
}

// Rebuild regrows the tree over seeds ∪ the hits Resolve reported and
// searches its leaves from now on, ranked afresh. Candidates still
// awaiting results are forgotten with the leaves that proposed them; what
// was emitted stays emitted.
func (s *LeafSearch) Rebuild(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) {
	pool := ipaddr.NewSet(seeds...)
	if s.st != nil {
		pool.AddAll(s.st.hits)
	}
	s.model = mineTree(pool.Slice(), minLeaf, h)
	if s.st != nil {
		s.start()
	}
}
