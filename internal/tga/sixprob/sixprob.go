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
// to its visit count, discounted by 1-eps) or mutates the position to a
// value the trie has not seen there (probability eps times the value's
// smoothed global frequency at that position), after which the walk
// borrows the heaviest sibling subtree to complete the address. At least
// one mutation is required — zero-mutation completions are the seeds
// themselves — and at most maxMutations, which bounds the candidate
// space. Candidates therefore pop in highest-probability-first order,
// reproducibly: ties are broken by a hash keyed on the run seed, so a
// run is deterministic under its seed.
package sixprob

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/tga"
)

// The generation knobs and their defaults. eps, maxMutations,
// topMutations and Beam shape candidate drawing only, not the mined model,
// so they stay out of ModelParams.
const (
	// eps is the probability mass reserved for mutating a position to a
	// value unseen there, split across candidates by global frequency.
	eps                 = 0.05
	defaultMaxMutations = 3
	defaultTopMutations = 6
	defaultBeam         = 1 << 16
)

// model is the immutable mined artifact: the counted generation trie,
// the canonical seeds it was mined from, and the global per-position
// value frequencies used to weight mutations. It holds no pointers past
// its two slices.
type model struct {
	nodes []node        // nodes[0] is the root
	seeds []ipaddr.Addr // canonical; single-seed nodes read their tails here
	freq  [ipaddr.NybbleCount][16]int
	byFrq [ipaddr.NybbleCount][16]byte // values at each position, most frequent first
	total int
}

// node is one trie node, named by its index in Model.nodes. A node reached
// by the value at position d-1 describes positions d and below: count
// seeds pass through it, and bit v of edges is set when some of them have
// value v at position d. A node's children lie contiguously from first in
// ascending value order, so the child for v is first plus the number of
// edges below v. A node without edges holds a single seed (or, at depth
// 32, a seed listed more than once): first is the seed's index, and its
// remaining nybbles, the path-compressed tail, are read from that seed.
type node struct {
	count int32
	first int32
	edges uint16
}

// Generator implements tga.Generator and tga.ModelBuilder.
type Generator struct {
	// Beam caps the search heap; on overflow the worst half is dropped
	// deterministically. Bounds memory on large budgets.
	Beam int
	// maxMutations caps mutated positions per candidate.
	maxMutations int
	// topMutations caps how many mutation values are tried per position
	// (most globally frequent first).
	topMutations int
	// seed breaks log-probability ties; same seed, same draw order.
	seed uint64

	model    *model
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
		Beam:         defaultBeam,
		maxMutations: defaultMaxMutations,
		topMutations: defaultTopMutations,
		seed:         1,
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
// silently drop every non-contiguous value run. The model keeps sorted
// input without a copy, so those seeds must not change while it is in
// use.
func (g *Generator) BuildModel(seedAddrs []ipaddr.Addr) (tga.Model, error) {
	if len(seedAddrs) == 0 {
		return nil, fmt.Errorf("sixprob: no seeds")
	}
	seedAddrs = tga.CanonicalSeeds(seedAddrs)
	m := &model{total: len(seedAddrs)}
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
	m.seeds = seedAddrs
	m.nodes = growTrie(make([]node, 1, trieSize(seedAddrs)), seedAddrs, 0, 0, len(seedAddrs), 0)
	return m, nil
}

// trieSize counts the nodes growTrie makes from sorted seeds, so the trie
// is allocated once. Past the root, each seed's path adds the nodes below
// the prefix it shares with the previous seed — every earlier seed shares
// less — down to one past the longest prefix it shares with either
// neighbour, where it is alone (or down to depth 32).
func trieSize(seeds []ipaddr.Addr) int {
	size := 1
	prev := -1 // nybbles the seed shares with the previous one
	for i := range seeds {
		next := -1
		if i+1 < len(seeds) {
			next = seeds[i].CommonPrefixLen(seeds[i+1]) / 4
		}
		size += min(max(prev, next)+1, ipaddr.NybbleCount) - max(prev, 0)
		prev = next
	}
	return size
}

// growTrie fills in node i over the sorted seed range [lo,hi), whose seeds
// share their first depth nybbles, and grows its subtree: the children are
// appended to nodes side by side, one per value run at position depth —
// sorted input makes every run contiguous — and then grown in turn.
func growTrie(nodes []node, seeds []ipaddr.Addr, i int32, lo, hi, depth int) []node {
	nodes[i] = node{count: int32(hi - lo), first: int32(lo)}
	if hi-lo == 1 || depth == ipaddr.NybbleCount {
		return nodes
	}
	first := int32(len(nodes))
	var edges uint16
	for j := lo; j < hi; j++ {
		if v := seeds[j].Nybble(depth); edges&(1<<v) == 0 {
			edges |= 1 << v
			nodes = append(nodes, node{})
		}
	}
	nodes[i].first, nodes[i].edges = first, edges
	kid := first
	for j := lo; j < hi; kid++ {
		v := seeds[j].Nybble(depth)
		end := j + 1
		for end < hi && seeds[end].Nybble(depth) == v {
			end++
		}
		nodes = growTrie(nodes, seeds, kid, j, end, depth+1)
		j = end
	}
	return nodes
}

// Init implements tga.Generator: BuildModel + InitFromModel.
func (g *Generator) Init(seedAddrs []ipaddr.Addr) error { return tga.InitByModel(g, seedAddrs) }

// InitFromModel implements tga.ModelBuilder: it adopts a mined model
// (possibly from the cross-run cache) and builds fresh run state. The
// model is never written through. Generation knobs (Beam, topMutations,
// ...) must be set before this call — the log-probability tables are
// derived here.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	mm, ok := m.(*model)
	if !ok {
		return fmt.Errorf("sixprob: model type %T", m)
	}
	g.model = mm
	g.emitted = ipaddr.NewSet()
	g.frontier = newCandHeap(g.Beam)
	g.tick = 0
	g.hasFloor = false
	g.lnKeep = math.Log(1 - eps)
	g.lnEps = math.Log(eps)
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
		g.push(cand{}, 0) // the root, node 0
	}
	return nil
}

// cand is a partial address: positions [0,depth) are fixed in addr and
// node continues it. A node with edges is consulted at position depth; a
// single-seed node continues along its seed's nybbles from depth on. Its
// log-probability and tie-break hash, the draw key, sit beside it in the
// frontier's heap; tick, its push order, settles what they leave tied.
type cand struct {
	addr  ipaddr.Addr
	tick  uint64
	node  int32
	depth uint8
	muts  uint8
}

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext): set replaces the generator's own record of what it
// proposed. A nil set is the driver taking its set back at the end of the
// run: the generator then also returns its frontier to the free list and
// is exhausted until the next InitFromModel.
func (g *Generator) ShareCandidates(set *ipaddr.Set) {
	g.emitted = set
	if set == nil {
		g.frontier.release()
		g.model = nil
	}
}

// NextBatch implements tga.Generator: it pops complete addresses in
// highest-probability-first order, expanding partial ones as it goes.
func (g *Generator) NextBatch(nwant int) []ipaddr.Addr {
	if g.model == nil || nwant <= 0 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, nwant)
	for len(out) < nwant && g.frontier.Len() > 0 {
		c, lp := g.frontier.pop()
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
		g.expand(c, lp)
	}
	return out
}

// expand pushes every extension of c, whose log-probability is lp: the
// trie's own edges discounted by 1-eps, plus up to topMutations mutated
// values per position weighted by eps times their smoothed global
// frequency. Single-seed tails expand in bulk — one pop pushes the pure
// completion plus the mutations at every remaining position, with the same
// log-probabilities the one-position walk would accumulate, so the heap
// never carries the long chain of intermediate pure-path candidates.
func (g *Generator) expand(c cand, lp float64) {
	n := g.model.nodes[c.node]
	if n.edges == 0 {
		g.expandTail(c, lp, g.model.seeds[n.first])
		return
	}
	pos := int(c.depth)
	total := float64(n.count)
	heaviest, most := int32(-1), int32(0)
	kid := n.first // children are contiguous, in ascending value order
	for e := n.edges; e != 0; e &= e - 1 {
		v := bits.TrailingZeros16(e)
		count := g.model.nodes[kid].count
		if count > most {
			heaviest, most = kid, count
		}
		g.push(cand{
			addr:  c.addr.WithNybble(pos, byte(v)),
			depth: c.depth + 1,
			muts:  c.muts,
			node:  kid,
		}, lp+math.Log(float64(count)/total)+g.lnKeep)
		kid++
	}
	if int(c.muts) < g.maxMutations {
		// Mutations to values without an edge borrow the heaviest
		// sibling's subtree to complete the low half of the address.
		g.pushMutationsAt(c.addr, pos, lp, c.muts, n.edges, heaviest)
	}
}

// expandTail bulk-expands c along the single seed its node holds: the pure
// completion (skipped at zero mutations — those are the seeds), then the
// mutation candidates at each remaining position, each priced as if the
// walk had followed the seed one position at a time.
func (g *Generator) expandTail(c cand, lp float64, seed ipaddr.Addr) {
	pos := int(c.depth)
	if c.muts > 0 {
		addr := c.addr
		for p := pos; p < ipaddr.NybbleCount; p++ {
			addr = addr.WithNybble(p, seed.Nybble(p))
		}
		g.push(cand{
			addr:  addr,
			depth: ipaddr.NybbleCount,
			muts:  c.muts,
		}, lp+float64(ipaddr.NybbleCount-pos)*g.lnKeep)
	}
	if int(c.muts) >= g.maxMutations {
		return
	}
	prefix := c.addr
	for p := pos; p < ipaddr.NybbleCount; p++ {
		// Skip positions where even the best mutation lands under the
		// floor; the floor only rises while we push, so the snapshot
		// taken here is conservative.
		v := seed.Nybble(p)
		plp := lp + float64(p-pos)*g.lnKeep
		if floor, ok := g.activeFloor(); !ok || plp+g.maxMutLP[p] >= floor {
			g.pushMutationsAt(prefix, p, plp, c.muts, 1<<v, c.node)
		}
		prefix = prefix.WithNybble(p, v)
	}
}

// pushMutationsAt pushes the top globally-frequent mutation values at one
// position, skipping the values set in skip (those the trie already
// covers there), each continued from the next position by node. byFrq
// order means mutLP is non-increasing along the walk, so the first value
// under the floor ends the position.
func (g *Generator) pushMutationsAt(prefix ipaddr.Addr, pos int, lp float64, muts uint8,
	skip uint16, node int32) {
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
			addr:  prefix.WithNybble(pos, v),
			depth: uint8(pos + 1),
			muts:  muts + 1,
			node:  node,
		}, lp+g.mutLP[pos][v])
		if pushed++; pushed == g.topMutations {
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

// push stamps the candidate's push order and inserts it with its draw key,
// pruning the frontier to the keep() best entries when it outgrows Beam.
// Candidates scoring strictly below the active floor are dropped up
// front — the next prune would discard them anyway, and the O(1) drop is
// what keeps mutation fan-out from forcing a prune every Beam/2 pushes.
func (g *Generator) push(c cand, lp float64) {
	if floor, ok := g.activeFloor(); ok && lp < floor {
		return
	}
	c.tick = g.tick
	g.tick++
	g.frontier.push(c, key{lp: lp, tie: ipaddr.MixOn(0x9e3779b97f4a7c15, g.seed, c.addr.Hi(), c.addr.Lo(), uint64(c.depth))})
	if g.Beam > 0 && g.frontier.Len() > g.Beam {
		g.floor = g.frontier.prune(g.keep())
		g.hasFloor = true
	}
}

// Feedback implements tga.Generator; 6Prob is offline and ignores it.
func (g *Generator) Feedback([]tga.ProbeResult) {}

// key is a frontier heap entry: a candidate's draw key — higher
// log-probability first, then the seeded tie-break hash — and the slab
// slot holding the candidate.
type key struct {
	lp   float64
	tie  uint64
	slot int32
}

// candHeap is the frontier: a max-heap of keys in draw order over a
// reusable slab of candidates addressed through a free list. Sifts and
// prunes compare the keys where they lie and read the slab only when two
// keys tie in full, for the push order that settles it; the order is
// total, so the pops, prunes and floors are those of any correct heap.
// Slab, heap and free list cost 60 bytes per entry and hold no pointers.
type candHeap struct {
	heap []key
	slab []cand
	free []int32
}

// newCandHeap sizes a frontier for a beam once: it holds beam+1 entries
// just before each prune (defaultBeam+1 for an unbounded beam, which grows
// past that by append). A default-size frontier comes off the free list
// when it has one.
func newCandHeap(beam int) candHeap {
	size := defaultBeam
	if beam > 0 {
		size = min(beam, defaultBeam)
	}
	if size == defaultBeam {
		if h, ok := frontiers.Get(); ok {
			return h
		}
	}
	return candHeap{
		heap: make([]key, 0, size+1),
		slab: make([]cand, 0, size+1),
		free: make([]int32, 0, size+1),
	}
}

// frontiers is the free list of emptied frontiers (about 3.9 MB each), one
// per concurrent run of the experiment grid. It keeps only frontiers of
// the default size, so a run never takes one that must grow by append.
var frontiers = make(memo.FreeList[candHeap], memo.FreeListLen)

// release empties h onto the free list when it is of the default size and
// the list has room, and leaves h the zero frontier, which a second
// release does not keep.
func (h *candHeap) release() {
	const size = defaultBeam + 1
	if cap(h.heap) == size && cap(h.slab) == size && cap(h.free) == size {
		frontiers.Put(candHeap{heap: h.heap[:0], slab: h.slab[:0], free: h.free[:0]})
	}
	*h = candHeap{}
}

func (h *candHeap) Len() int { return len(h.heap) }

// before is the draw order.
func (h *candHeap) before(a, b *key) bool {
	if a.lp != b.lp {
		return a.lp > b.lp
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return h.slab[a.slot].tick < h.slab[b.slot].tick
}

func (h *candHeap) push(c cand, k key) {
	if n := len(h.free); n > 0 {
		k.slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[k.slot] = c
	} else {
		k.slot = int32(len(h.slab))
		h.slab = append(h.slab, c)
	}
	h.heap = append(h.heap, k)
	h.up(len(h.heap) - 1)
}

// pop removes the first candidate in draw order and returns it with its
// log-probability.
func (h *candHeap) pop() (cand, float64) {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.down(0)
	}
	h.free = append(h.free, top.slot)
	return h.slab[top.slot], top.lp
}

// up sifts heap[i] toward the root, down toward the leaves; both move the
// entry once, to the hole its path ends at.
func (h *candHeap) up(i int) {
	k := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(&k, &h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		i = p
	}
	h.heap[i] = k
}

func (h *candHeap) down(i int) {
	k := h.heap[i]
	for {
		kid := 2*i + 1
		if kid >= len(h.heap) {
			break
		}
		if r := kid + 1; r < len(h.heap) && h.before(&h.heap[r], &h.heap[kid]) {
			kid = r
		}
		if !h.before(&h.heap[kid], &k) {
			break
		}
		h.heap[i] = h.heap[kid]
		i = kid
	}
	h.heap[i] = k
}

// prune keeps the best `keep` candidates, frees the rest, and returns the
// worst surviving log-probability — the new beam floor. Draw order is
// total, so the kept set a selection finds is the one a full sort would,
// and the re-heapified survivors pop in the same order.
func (h *candHeap) prune(keep int) float64 {
	h.selectBest(keep)
	floor := h.heap[keep-1].lp
	for _, k := range h.heap[keep:] {
		h.free = append(h.free, k.slot)
	}
	h.heap = h.heap[:keep]
	for i := keep/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return floor
}

// selectBest reorders heap so that its first k entries are the k best in
// draw order and heap[k-1] is the k-th best: a quickselect with a
// median-of-three pivot and Hoare partitioning.
func (h *candHeap) selectBest(k int) {
	a := h.heap
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Order lo, mid, hi so the pivot at mid is their median; the two
		// ends then bound the partition scans.
		mid := int(uint(lo+hi) >> 1)
		if h.before(&a[mid], &a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if h.before(&a[hi], &a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
			if h.before(&a[mid], &a[lo]) {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for h.before(&a[i], &pivot) {
				i++
			}
			for h.before(&pivot, &a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] come no later than the pivot, a[i..hi] no
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
