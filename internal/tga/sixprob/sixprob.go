// Package sixprob implements 6Prob, a probabilistic target generation
// algorithm from the modern structure-aware family the paper's study set
// does not cover. The mined model is a probability-weighted generation
// trie over the 32 nybble positions of the seed addresses: every node
// carries the number of seeds that pass through it, so an edge's weight
// is the empirical probability of its value given the prefix above it.
// Single-seed subtrees are path-compressed into tails, which keeps the
// trie near-linear in the seed count and lets it scale to hitlist-sized
// inputs.
//
// Generation is a deterministic best-first walk: a max-heap of partial
// addresses ordered by accumulated log-probability. Expanding a partial
// address either follows an existing trie edge (probability proportional
// to its visit count, discounted by 1-Eps) or mutates the position to a
// value the trie has not seen there (probability Eps times the value's
// smoothed global frequency at that position), after which the walk
// borrows the heaviest sibling subtree to complete the address. At least
// one mutation is required — zero-mutation completions are the seeds
// themselves — and at most MaxMutations, which bounds the candidate
// space. Candidates therefore pop in highest-probability-first order,
// reproducibly: ties are broken by a hash keyed on the run seed, so a
// run is deterministic under its seed.
package sixprob

import (
	"fmt"
	"math"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Defaults for the generation knobs. Eps, MaxMutations, TopMutations and
// Beam shape candidate drawing only, not the mined model, so they stay
// out of ModelParams.
const (
	DefaultEps          = 0.05
	DefaultMaxMutations = 3
	DefaultTopMutations = 6
	DefaultBeam         = 1 << 16
)

// Model is the immutable mined artifact: the counted generation trie plus
// the global per-position value frequencies used to weight mutations.
type Model struct {
	root  *node
	freq  [ipaddr.NybbleCount][16]int
	byFrq [ipaddr.NybbleCount][16]byte // values at each position, most frequent first
	total int
}

// node is one trie node. A node reached by the value at position d-1
// describes positions d and below: kids[v] is the subtree of seeds with
// value v at position d, count the number of seeds underneath. Subtrees
// holding a single seed are compressed: kids is nil and tail lists the
// seed's remaining nybbles.
type node struct {
	count int
	kids  *[16]*node
	tail  []byte
}

// Generator implements tga.Generator and tga.ModelBuilder.
type Generator struct {
	// Eps is the probability mass reserved for mutating a position to a
	// value unseen there, split across candidates by global frequency.
	Eps float64
	// MaxMutations caps mutated positions per candidate.
	MaxMutations int
	// TopMutations caps how many mutation values are tried per position
	// (most globally frequent first).
	TopMutations int
	// Beam caps the search heap; on overflow the worst half is dropped
	// deterministically. Bounds memory on large budgets.
	Beam int
	// Seed breaks log-probability ties; same seed, same draw order.
	Seed uint64

	model    *Model
	frontier candHeap
	emitted  *ipaddr.Set
	tick     uint64

	// Derived once per InitFromModel so the hot path never calls math.Log:
	// lnKeep/lnEps are the follow/mutate discounts, mutLP[pos][v] the full
	// mutation term lnEps+log((freq+1)/(total+16)), maxMutLP its maximum
	// over v (the cheapest possible mutation at a position — used to skip
	// positions no mutation can survive the floor at).
	lnKeep   float64
	lnEps    float64
	mutLP    [ipaddr.NybbleCount][16]float64
	maxMutLP [ipaddr.NybbleCount]float64
	// floor is the worst log-probability to survive the last beam prune;
	// pushes strictly below it are dropped in O(1) — they would not
	// outlive the next prune either, and dropping them deterministically
	// keeps the frontier from thrashing through repeated sorts.
	floor    float64
	hasFloor bool
}

// New returns a 6Prob generator with default knobs.
func New() *Generator {
	return &Generator{
		Eps:          DefaultEps,
		MaxMutations: DefaultMaxMutations,
		TopMutations: DefaultTopMutations,
		Beam:         DefaultBeam,
		Seed:         1,
	}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Prob" }

// Online implements tga.Generator: 6Prob is offline and ignores Feedback.
func (g *Generator) Online() bool { return false }

// ModelParams implements tga.ModelBuilder. The trie is a pure function of
// the seeds — every generation knob is runtime-only — so past the
// generator's name the encoding carries only a format version.
func (g *Generator) ModelParams() string { return "6prob/v=1" }

// BuildModel implements tga.ModelBuilder: it mines the counted trie and
// the global value frequencies. Input is canonicalized first — the trie's
// linear grouping sweep requires sorted seeds, and unsorted input would
// silently drop every non-contiguous value run.
func (g *Generator) BuildModel(seedAddrs []ipaddr.Addr) (tga.Model, error) {
	if len(seedAddrs) == 0 {
		return nil, fmt.Errorf("sixprob: no seeds")
	}
	seedAddrs = tga.CanonicalSeeds(seedAddrs)
	m := &Model{total: len(seedAddrs)}
	m.freq = tga.ValueCounts(seedAddrs)
	for pos := 0; pos < ipaddr.NybbleCount; pos++ {
		for v := 0; v < 16; v++ {
			m.byFrq[pos][v] = byte(v)
		}
		f := m.freq[pos]
		order := m.byFrq[pos][:]
		sort.SliceStable(order, func(i, j int) bool {
			return f[order[i]] > f[order[j]]
		})
	}
	m.root = buildTrie(seedAddrs, 0)
	return m, nil
}

// buildTrie recurses over a sorted, contiguous seed range. Sorted input
// means every value at the current position is a contiguous run, so
// grouping is a linear sweep.
func buildTrie(seedAddrs []ipaddr.Addr, depth int) *node {
	n := &node{count: len(seedAddrs)}
	if len(seedAddrs) == 0 || depth == ipaddr.NybbleCount {
		return n
	}
	if len(seedAddrs) == 1 {
		tail := make([]byte, ipaddr.NybbleCount-depth)
		for i := range tail {
			tail[i] = seedAddrs[0].Nybble(depth + i)
		}
		n.tail = tail
		return n
	}
	n.kids = new([16]*node)
	for lo := 0; lo < len(seedAddrs); {
		v := seedAddrs[lo].Nybble(depth)
		hi := lo + 1
		for hi < len(seedAddrs) && seedAddrs[hi].Nybble(depth) == v {
			hi++
		}
		n.kids[v] = buildTrie(seedAddrs[lo:hi], depth+1)
		lo = hi
	}
	return n
}

// Init implements tga.Generator: BuildModel + InitFromModel.
func (g *Generator) Init(seedAddrs []ipaddr.Addr) error { return tga.InitByModel(g, seedAddrs) }

// InitFromModel implements tga.ModelBuilder: it adopts a mined model
// (possibly from the cross-run cache) and builds fresh run state. The
// model is never written through. Generation knobs (Eps, TopMutations,
// ...) must be set before this call — the log-probability tables are
// derived here.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	mm, ok := m.(*Model)
	if !ok {
		return fmt.Errorf("sixprob: model type %T", m)
	}
	g.model = mm
	g.emitted = ipaddr.NewSet()
	g.frontier = newCandHeap(g.Beam)
	g.tick = 0
	g.hasFloor = false
	g.lnKeep = math.Log(1 - g.Eps)
	g.lnEps = math.Log(g.Eps)
	denom := float64(mm.total + 16)
	for pos := 0; pos < ipaddr.NybbleCount; pos++ {
		g.maxMutLP[pos] = math.Inf(-1)
		for v := 0; v < 16; v++ {
			g.mutLP[pos][v] = g.lnEps + math.Log((float64(mm.freq[pos][v])+1)/denom)
			if g.mutLP[pos][v] > g.maxMutLP[pos] {
				g.maxMutLP[pos] = g.mutLP[pos][v]
			}
		}
	}
	if mm.total > 0 {
		g.push(cand{n: mm.root})
	}
	return nil
}

// cand is a partial address: positions [0,depth) are fixed in addr and n
// continues it. A node with kids is consulted at position depth; a node
// with a compressed tail continues along tail[off:]. lp is the
// accumulated log-probability.
type cand struct {
	lp    float64
	addr  ipaddr.Addr
	n     *node
	tie   uint64
	tick  uint64
	depth uint8
	muts  uint8
	off   uint8
}

// NextBatch implements tga.Generator: it pops complete addresses in
// highest-probability-first order, expanding partial ones as it goes.
func (g *Generator) NextBatch(nwant int) []ipaddr.Addr {
	if g.model == nil || nwant <= 0 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, nwant)
	for len(out) < nwant && g.frontier.Len() > 0 {
		c := g.frontier.pop()
		if c.depth == ipaddr.NybbleCount {
			// Complete. Pure-trie completions are the seeds themselves;
			// only mutated addresses are candidates.
			if c.muts == 0 {
				continue
			}
			if g.emitted.Add(c.addr) {
				out = append(out, c.addr)
			}
			continue
		}
		g.expand(c)
	}
	return out
}

// expand pushes every extension of c: the trie's own edges discounted by
// 1-Eps, plus up to TopMutations mutated values per position weighted by
// Eps times their smoothed global frequency. Compressed tails expand in
// bulk — one pop pushes the pure completion plus the mutations at every
// remaining position, with the same log-probabilities the one-position
// walk would accumulate, so the heap never carries the long chain of
// intermediate pure-path candidates.
func (g *Generator) expand(c cand) {
	if c.n.tail != nil {
		g.expandTail(c)
		return
	}
	pos := int(c.depth)
	total := float64(c.n.count)
	var heaviest *node
	var edges uint16
	for v := 0; v < 16; v++ {
		child := c.n.kids[v]
		if child == nil {
			continue
		}
		edges |= 1 << v
		if heaviest == nil || child.count > heaviest.count {
			heaviest = child
		}
		g.push(cand{
			lp:    c.lp + math.Log(float64(child.count)/total) + g.lnKeep,
			addr:  c.addr.WithNybble(pos, byte(v)),
			depth: c.depth + 1,
			muts:  c.muts,
			n:     child,
		})
	}
	if int(c.muts) < g.MaxMutations && heaviest != nil {
		// Mutations to values without an edge borrow the heaviest
		// sibling's subtree to complete the low half of the address.
		g.pushMutationsAt(c.addr, pos, c.lp, c.muts, edges, heaviest, 0)
	}
}

// expandTail bulk-expands a path-compressed continuation: the pure
// completion (skipped at zero mutations — those are the seeds), then the
// mutation candidates at each tail position, each priced as if the walk
// had followed the tail one position at a time.
func (g *Generator) expandTail(c cand) {
	pos := int(c.depth)
	tail := c.n.tail[c.off:]
	if c.muts > 0 {
		addr := c.addr
		for i, v := range tail {
			addr = addr.WithNybble(pos+i, v)
		}
		g.push(cand{
			lp:    c.lp + float64(len(tail))*g.lnKeep,
			addr:  addr,
			depth: ipaddr.NybbleCount,
			muts:  c.muts,
		})
	}
	if int(c.muts) >= g.MaxMutations {
		return
	}
	prefix := c.addr
	for i, v := range tail {
		// Skip positions where even the best mutation lands under the
		// floor; the floor only rises while we push, so the snapshot
		// taken here is conservative.
		lp := c.lp + float64(i)*g.lnKeep
		if floor, ok := g.activeFloor(); !ok || lp+g.maxMutLP[pos+i] >= floor {
			g.pushMutationsAt(prefix, pos+i, lp, c.muts, 1<<v, c.n, c.off+uint8(i)+1)
		}
		prefix = prefix.WithNybble(pos+i, v)
	}
}

// pushMutationsAt pushes the top globally-frequent mutation values at one
// position, skipping the values set in skip (those the trie already
// covers there), each continued by n from tail offset off. byFrq order
// means mutLP is non-increasing along the walk, so the first value under
// the floor ends the position.
func (g *Generator) pushMutationsAt(prefix ipaddr.Addr, pos int, lp float64, muts uint8,
	skip uint16, n *node, off uint8) {
	floor, gated := g.activeFloor()
	pushed := 0
	for _, v := range g.model.byFrq[pos] {
		if gated && lp+g.mutLP[pos][v] < floor {
			return
		}
		if skip&(1<<v) != 0 {
			continue
		}
		g.push(cand{
			lp:    lp + g.mutLP[pos][v],
			addr:  prefix.WithNybble(pos, v),
			depth: uint8(pos + 1),
			muts:  muts + 1,
			n:     n,
			off:   off,
		})
		if pushed++; pushed == g.TopMutations {
			return
		}
	}
}

// keep is how many candidates a beam prune leaves: half the beam, and at
// least one.
func (g *Generator) keep() int { return max(g.Beam/2, 1) }

// activeFloor reports the beam floor when it is in force: the frontier
// holds at least keep() entries, so a candidate under the last prune's
// cut line has no chance of surviving. Once pops drain the frontier below
// that there is room again and the floor stops gating, exactly as a beam
// with free slots keeps low scorers.
func (g *Generator) activeFloor() (float64, bool) {
	if g.hasFloor && g.frontier.Len() >= g.keep() {
		return g.floor, true
	}
	return 0, false
}

// push stamps the candidate's deterministic tie-break key and inserts it,
// pruning the frontier to the keep() best entries when it outgrows Beam.
// Candidates scoring strictly below the active floor are dropped up
// front — the next prune would discard them anyway, and the O(1) drop is
// what keeps mutation fan-out from forcing a prune every Beam/2 pushes.
func (g *Generator) push(c cand) {
	if floor, ok := g.activeFloor(); ok && c.lp < floor {
		return
	}
	c.tie = mix64(g.Seed, c.addr.Hi(), c.addr.Lo(), uint64(c.depth))
	c.tick = g.tick
	g.tick++
	g.frontier.push(c)
	if g.Beam > 0 && g.frontier.Len() > g.Beam {
		g.floor = g.frontier.prune(g.keep())
		g.hasFloor = true
	}
}

// Feedback implements tga.Generator; 6Prob is offline and ignores it.
func (g *Generator) Feedback([]tga.ProbeResult) {}

// before is the draw order: higher probability first, then the seeded
// tie-break hash, then insertion order.
func (c *cand) before(o *cand) bool {
	if c.lp != o.lp {
		return c.lp > o.lp
	}
	if c.tie != o.tie {
		return c.tie < o.tie
	}
	return c.tick < o.tick
}

// candHeap is an index max-heap (tga.HeapUp et al.): the heap order lives
// in idx, so sifts and prunes move 4-byte indices instead of the 56-byte
// cand structs, which sit in a reusable slab addressed through a free list.
type candHeap struct {
	slab []cand
	free []int32
	idx  []int32
}

// newCandHeap sizes a frontier for a beam once: it holds beam+1 entries
// just before each prune (DefaultBeam+1 for an unbounded beam, which grows
// past that by append).
func newCandHeap(beam int) candHeap {
	size := DefaultBeam
	if beam > 0 {
		size = min(beam, DefaultBeam)
	}
	return candHeap{
		slab: make([]cand, 0, size+1),
		free: make([]int32, 0, size+1),
		idx:  make([]int32, 0, size+1),
	}
}

func (h *candHeap) Len() int { return len(h.idx) }

// before orders slab slots by their candidates' draw order.
func (h *candHeap) before(a, b int32) bool { return h.slab[a].before(&h.slab[b]) }

func (h *candHeap) push(c cand) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = c
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, c)
	}
	h.idx = append(h.idx, slot)
	tga.HeapUp(h.idx, len(h.idx)-1, h.before)
}

func (h *candHeap) pop() cand {
	top := h.idx[0]
	h.idx = tga.HeapPop(h.idx, h.before)
	c := h.slab[top]
	h.slab[top] = cand{} // release the node pointer for GC
	h.free = append(h.free, top)
	return c
}

// prune keeps the best `keep` candidates, frees the rest, and returns the
// worst surviving log-probability — the new beam floor. Draw order is
// total, so the kept set a selection finds is the one a full sort would,
// and the re-heapified survivors pop in the same order.
func (h *candHeap) prune(keep int) float64 {
	h.selectBest(keep)
	floor := h.slab[h.idx[keep-1]].lp
	for _, slot := range h.idx[keep:] {
		h.slab[slot] = cand{}
		h.free = append(h.free, slot)
	}
	h.idx = h.idx[:keep]
	for i := keep/2 - 1; i >= 0; i-- {
		tga.HeapDown(h.idx, i, h.before)
	}
	return floor
}

// selectBest reorders idx so that its first k entries are the k best in
// draw order and idx[k-1] is the k-th best: a quickselect with a
// median-of-three pivot and Hoare partitioning.
func (h *candHeap) selectBest(k int) {
	idx := h.idx
	lo, hi := 0, len(idx)-1
	for lo < hi {
		// Order lo, mid, hi so the pivot at mid is their median; the two
		// ends then bound the partition scans.
		mid := int(uint(lo+hi) >> 1)
		if h.before(idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if h.before(idx[hi], idx[mid]) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
			if h.before(idx[mid], idx[lo]) {
				idx[mid], idx[lo] = idx[lo], idx[mid]
			}
		}
		pivot := idx[mid]
		i, j := lo, hi
		for i <= j {
			for h.before(idx[i], pivot) {
				i++
			}
			for h.before(pivot, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Now idx[lo..j] come no later than the pivot, idx[i..hi] no
		// earlier, and anything between is the pivot itself.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// mix64 folds values into a well-mixed 64-bit hash (splitmix64 chain).
func mix64(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
