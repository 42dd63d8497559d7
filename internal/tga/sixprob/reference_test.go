package sixprob

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// refGenerator is 6Prob as it stood with a pointer trie and an index heap
// over a slab of full candidates: the definition the flat trie and the
// inline-key frontier are held to. Each node owns an array of child
// pointers, single-seed subtrees keep their tails as bytes, and the heap
// orders int32 slab slots through a comparison closure.
type refGenerator struct {
	Eps          float64
	MaxMutations int
	TopMutations int
	Beam         int
	Seed         uint64

	root     *refNode
	freq     [ipaddr.NybbleCount][16]int
	byFrq    [ipaddr.NybbleCount][16]byte
	total    int
	frontier refHeap
	emitted  *ipaddr.Set
	tick     uint64
	lnKeep   float64
	lnEps    float64
	mutLP    [ipaddr.NybbleCount][16]float64
	maxMutLP [ipaddr.NybbleCount]float64
	floor    float64
	hasFloor bool
}

type refNode struct {
	count int
	kids  *[16]*refNode
	tail  []byte
}

type refCand struct {
	lp    float64
	addr  ipaddr.Addr
	n     *refNode
	tie   uint64
	tick  uint64
	depth uint8
	muts  uint8
	off   uint8
}

func newRef(g *Generator) *refGenerator {
	return &refGenerator{Eps: g.Eps, MaxMutations: g.MaxMutations, TopMutations: g.TopMutations, Beam: g.Beam, Seed: g.Seed}
}

func (g *refGenerator) init(seedAddrs []ipaddr.Addr) {
	seedAddrs = tga.CanonicalSeeds(seedAddrs)
	g.total = len(seedAddrs)
	g.freq = tga.ValueCounts(seedAddrs)
	for pos := 0; pos < ipaddr.NybbleCount; pos++ {
		for v := 0; v < 16; v++ {
			g.byFrq[pos][v] = byte(v)
		}
		f := g.freq[pos]
		order := g.byFrq[pos][:]
		sort.SliceStable(order, func(i, j int) bool { return f[order[i]] > f[order[j]] })
	}
	g.root = refBuildTrie(seedAddrs, 0)
	g.emitted = ipaddr.NewSet()
	g.lnKeep = math.Log(1 - g.Eps)
	g.lnEps = math.Log(g.Eps)
	denom := float64(g.total + 16)
	for pos := 0; pos < ipaddr.NybbleCount; pos++ {
		g.maxMutLP[pos] = math.Inf(-1)
		for v := 0; v < 16; v++ {
			g.mutLP[pos][v] = g.lnEps + math.Log((float64(g.freq[pos][v])+1)/denom)
			g.maxMutLP[pos] = max(g.maxMutLP[pos], g.mutLP[pos][v])
		}
	}
	g.push(refCand{n: g.root})
}

func refBuildTrie(seedAddrs []ipaddr.Addr, depth int) *refNode {
	n := &refNode{count: len(seedAddrs)}
	if len(seedAddrs) == 0 || depth == ipaddr.NybbleCount {
		return n
	}
	if len(seedAddrs) == 1 {
		n.tail = make([]byte, ipaddr.NybbleCount-depth)
		for i := range n.tail {
			n.tail[i] = seedAddrs[0].Nybble(depth + i)
		}
		return n
	}
	n.kids = new([16]*refNode)
	for lo := 0; lo < len(seedAddrs); {
		v := seedAddrs[lo].Nybble(depth)
		hi := lo + 1
		for hi < len(seedAddrs) && seedAddrs[hi].Nybble(depth) == v {
			hi++
		}
		n.kids[v] = refBuildTrie(seedAddrs[lo:hi], depth+1)
		lo = hi
	}
	return n
}

// refCount counts the nodes of a pointer trie.
func refCount(n *refNode) int {
	count := 1
	if n.kids != nil {
		for _, kid := range n.kids {
			if kid != nil {
				count += refCount(kid)
			}
		}
	}
	return count
}

func (g *refGenerator) nextBatch(nwant int) []ipaddr.Addr {
	var out []ipaddr.Addr
	for len(out) < nwant && g.frontier.Len() > 0 {
		c := g.frontier.pop()
		if c.depth == ipaddr.NybbleCount {
			if c.muts > 0 && g.emitted.Add(c.addr) {
				out = append(out, c.addr)
			}
			continue
		}
		g.expand(c)
	}
	return out
}

func (g *refGenerator) expand(c refCand) {
	if c.n.tail != nil {
		g.expandTail(c)
		return
	}
	pos := int(c.depth)
	total := float64(c.n.count)
	var heaviest *refNode
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
		g.push(refCand{
			lp:    c.lp + math.Log(float64(child.count)/total) + g.lnKeep,
			addr:  c.addr.WithNybble(pos, byte(v)),
			depth: c.depth + 1,
			muts:  c.muts,
			n:     child,
		})
	}
	if int(c.muts) < g.MaxMutations && heaviest != nil {
		g.pushMutationsAt(c.addr, pos, c.lp, c.muts, edges, heaviest, 0)
	}
}

func (g *refGenerator) expandTail(c refCand) {
	pos := int(c.depth)
	tail := c.n.tail[c.off:]
	if c.muts > 0 {
		addr := c.addr
		for i, v := range tail {
			addr = addr.WithNybble(pos+i, v)
		}
		g.push(refCand{lp: c.lp + float64(len(tail))*g.lnKeep, addr: addr, depth: ipaddr.NybbleCount, muts: c.muts})
	}
	if int(c.muts) >= g.MaxMutations {
		return
	}
	prefix := c.addr
	for i, v := range tail {
		lp := c.lp + float64(i)*g.lnKeep
		if floor, ok := g.activeFloor(); !ok || lp+g.maxMutLP[pos+i] >= floor {
			g.pushMutationsAt(prefix, pos+i, lp, c.muts, 1<<v, c.n, c.off+uint8(i)+1)
		}
		prefix = prefix.WithNybble(pos+i, v)
	}
}

func (g *refGenerator) pushMutationsAt(prefix ipaddr.Addr, pos int, lp float64, muts uint8,
	skip uint16, n *refNode, off uint8) {
	floor, gated := g.activeFloor()
	pushed := 0
	for _, v := range g.byFrq[pos] {
		if gated && lp+g.mutLP[pos][v] < floor {
			return
		}
		if skip&(1<<v) != 0 {
			continue
		}
		g.push(refCand{lp: lp + g.mutLP[pos][v], addr: prefix.WithNybble(pos, v), depth: uint8(pos + 1), muts: muts + 1, n: n, off: off})
		if pushed++; pushed == g.TopMutations {
			return
		}
	}
}

func (g *refGenerator) keep() int { return max(g.Beam/2, 1) }

func (g *refGenerator) activeFloor() (float64, bool) {
	if g.hasFloor && g.frontier.Len() >= g.keep() {
		return g.floor, true
	}
	return 0, false
}

func (g *refGenerator) push(c refCand) {
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

func (c *refCand) before(o *refCand) bool {
	if c.lp != o.lp {
		return c.lp > o.lp
	}
	if c.tie != o.tie {
		return c.tie < o.tie
	}
	return c.tick < o.tick
}

// refHeap orders slab slots in idx by their candidates' draw order; the
// prune fully sorts the frontier, the definition selectBest is held to.
type refHeap struct {
	slab []refCand
	free []int32
	idx  []int32
}

func (h *refHeap) Len() int { return len(h.idx) }

func (h *refHeap) before(a, b int32) bool { return h.slab[a].before(&h.slab[b]) }

func (h *refHeap) push(c refCand) {
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
	for k := len(h.idx) - 1; k > 0; {
		p := (k - 1) / 2
		if !h.before(h.idx[k], h.idx[p]) {
			break
		}
		h.idx[k], h.idx[p] = h.idx[p], h.idx[k]
		k = p
	}
}

func (h *refHeap) down(k int) {
	for {
		kid := 2*k + 1
		if kid >= len(h.idx) {
			return
		}
		if r := kid + 1; r < len(h.idx) && h.before(h.idx[r], h.idx[kid]) {
			kid = r
		}
		if !h.before(h.idx[kid], h.idx[k]) {
			return
		}
		h.idx[k], h.idx[kid] = h.idx[kid], h.idx[k]
		k = kid
	}
}

func (h *refHeap) pop() refCand {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	c := h.slab[top]
	h.slab[top] = refCand{}
	h.free = append(h.free, top)
	return c
}

func (h *refHeap) prune(keep int) float64 {
	sort.Slice(h.idx, func(i, j int) bool { return h.before(h.idx[i], h.idx[j]) })
	floor := h.slab[h.idx[keep-1]].lp
	for _, slot := range h.idx[keep:] {
		h.slab[slot] = refCand{}
		h.free = append(h.free, slot)
	}
	h.idx = h.idx[:keep]
	for i := keep/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return floor
}

// randomSeeds draws a seed set of one of the shapes the trie has edge
// cases for, in an arbitrary order: clustered hosts under a few /64s, with
// some seeds listed twice (duplicates reach BuildModel as they are), a
// single seed, or pairs that differ only in the last nybble, which puts
// trie nodes at depth 32.
func randomSeeds(rng *rand.Rand, shape int) []ipaddr.Addr {
	switch shape {
	case 0:
		return []ipaddr.Addr{ipaddr.AddrFrom64s(rng.Uint64(), rng.Uint64())}
	case 1:
		var out []ipaddr.Addr
		for i := 1 + rng.Intn(40); i > 0; i-- {
			a := ipaddr.AddrFrom64s(0x20010db8_00000000|uint64(rng.Intn(4))<<16, uint64(rng.Intn(1<<12))<<4)
			out = append(out, a, a.WithNybble(ipaddr.NybbleCount-1, byte(1+rng.Intn(15))))
		}
		return out
	default:
		var out []ipaddr.Addr
		nets := 1 + rng.Intn(6)
		for i := 2 + rng.Intn(300); i > 0; i-- {
			hi := 0x20010db8_00000000 | uint64(rng.Intn(nets))<<20 | uint64(rng.Intn(3))
			lo := uint64(rng.Intn(64))
			if rng.Intn(4) == 0 {
				lo = rng.Uint64() >> uint(4*rng.Intn(16))
			}
			out = append(out, ipaddr.AddrFrom64s(hi, lo))
			if rng.Intn(8) == 0 {
				out = append(out, out[rng.Intn(len(out))])
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// TestMatchesReference holds the flat trie and the inline-key frontier to
// the pointer trie and index heap they replaced: over random seed sets and
// every beam regime (unbounded, the degenerate 1-3, pruning many times,
// the default), with mutation depth and fan-out varied, both draw the same
// stream, batch by batch.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trial := 0
	for _, beam := range []int{0, 1, 2, 3, 64, 1024, DefaultBeam} {
		for _, maxMuts := range []int{1, 3} {
			for _, top := range []int{1, 6} {
				for shape := 0; shape < 3; shape++ {
					trial++
					seeds := randomSeeds(rng, shape)
					g := New()
					g.Beam, g.MaxMutations, g.TopMutations, g.Seed = beam, maxMuts, top, uint64(trial)
					name := fmt.Sprintf("trial %d (%d seeds, beam %d, max %d, top %d)", trial, len(seeds), beam, maxMuts, top)
					m, err := g.BuildModel(seeds)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := g.InitFromModel(m, seeds); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					ref := newRef(g)
					ref.init(seeds)
					// The flat trie has the pointer trie's nodes, in one
					// allocation of exactly that many.
					if nodes, want := m.(*Model).nodes, refCount(ref.root); len(nodes) != want || cap(nodes) != want {
						t.Fatalf("%s: %d nodes in a slice of %d, the pointer trie has %d", name, len(nodes), cap(nodes), want)
					}
					for drawn, batch := 0, 0; drawn < 3000; batch++ {
						n := 1 + rng.Intn(700)
						got, want := g.NextBatch(n), ref.nextBatch(n)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: batch %d of %d draws differs from the reference (%d vs %d addresses)", name, batch, n, len(got), len(want))
						}
						if len(got) < n {
							break
						}
						drawn += n
					}
				}
			}
		}
	}
}
