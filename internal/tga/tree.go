package tga

import (
	"math/bits"

	"seedscan/internal/ipaddr"
)

// SplitHeuristic picks the nybble position a tree node splits on, from the
// candidate positions (those with more than one observed value): bit i of
// candidates is set when position i is one. Returning -1 makes the node a
// leaf.
type SplitHeuristic func(seeds []ipaddr.Addr, candidates uint32) int

// SplitLeftmost is 6Tree's divisive hierarchical clustering order: split on
// the most significant varying nybble, mirroring allocation hierarchy.
func SplitLeftmost(seeds []ipaddr.Addr, candidates uint32) int {
	if candidates == 0 {
		return -1
	}
	return bits.TrailingZeros32(candidates)
}

// SplitMinEntropy is DET/6Graph's heuristic: split where the value
// distribution has the least (nonzero) entropy, isolating the strongest
// structure first.
func SplitMinEntropy(seeds []ipaddr.Addr, candidates uint32) int {
	if candidates == 0 {
		return -1
	}
	// Only the candidates' value distributions are compared, so only they
	// are tallied.
	var counts [ipaddr.NybbleCount][16]int
	for _, a := range seeds {
		for c := candidates; c != 0; c &= c - 1 {
			p := bits.TrailingZeros32(c)
			counts[p][a.Nybble(p)]++
		}
	}
	best, bestH := -1, 0.0
	for c := candidates; c != 0; c &= c - 1 {
		p := bits.TrailingZeros32(c)
		if h := entropy(&counts[p], len(seeds)); best == -1 || h < bestH {
			best, bestH = p, h
		}
	}
	return best
}

// TreeNode is a run's view of one leaf of a mined space tree: the leaf's
// read-only pattern masks and seed group, shared with the model, and the
// state the run changes.
type TreeNode struct {
	*TreeLeafModel

	// Gen is nil until a run first draws from the leaf: a generator
	// starting over Masks then yields what one started earlier would have.
	// Dry is set once the generator has run out, and Gen is dropped with it.
	Gen *LeafGen
	Dry bool

	// Online statistics, updated by adaptive generators.
	Probes int
	Hits   int
}

// MinLeaf is the leaf size every tree TGA (6Tree, DET, 6Hit, 6Scan,
// 6Graph) mines and rebuilds its space tree with: a node of fewer seeds
// does not split.
const MinLeaf = 4

// mineTree partitions seeds into the leaves of a space tree: each node
// splits on the position chosen by h until minLeaf seeds or no varying
// position remains. Empty seeds make one empty leaf.
func mineTree(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) *TreeModel {
	n := len(seeds)
	buf := make([]ipaddr.Addr, 2*n)
	b := &treeBuild{minLeaf: max(minLeaf, 1), h: h, part: [2][]ipaddr.Addr{buf[:n:n], buf[n:]}}
	b.mine(seeds, 0, 0)
	// A leaf is far larger than its window, so the leaves are allocated
	// once, at their final length, after the windows are known.
	m := &TreeModel{LeafModels: make([]TreeLeafModel, len(b.leaves))}
	start := 0
	for i, w := range b.leaves {
		leaf := seeds // a root that does not split is its own leaf
		if w.part >= 0 {
			leaf = b.part[w.part][start:w.end:w.end]
		}
		m.LeafModels[i] = TreeLeafModel{Masks: ObservedMasks(leaf), Seeds: leaf}
		start = int(w.end)
	}
	return m
}

// treeBuild is one tree construction: the split rule, the two buffers the
// nodes partition their seeds into, and the leaves' seed windows in DHC
// (depth-first, value-sorted) order. The node at depth d whose seeds are
// the window [off, off+len(seeds)) of the input order writes its
// children's groups into part[d%2] at that same window, so each depth
// reuses the buffer two depths up. A leaf's window is never written again
// — nothing descends from it — while an internal node's is overwritten, in
// part, by its children's partitions.
type treeBuild struct {
	minLeaf int
	h       SplitHeuristic
	part    [2][]ipaddr.Addr
	leaves  []window
}

// window is where a leaf's seeds lie: part[part] up to offset end, from
// where the previous leaf's window ends — siblings' windows lie back to
// back in their parent's, so the leaves' windows tile the input's offsets
// in DHC order. part is -1 for a root that does not split.
type window struct {
	end  int32
	part int8
}

// mine either records seeds as a leaf or partitions them on the split
// position into one group per value seen there, in ascending value order,
// each in input order, and mines each group.
func (b *treeBuild) mine(seeds []ipaddr.Addr, off, depth int) {
	pos := b.splitPos(seeds, depth)
	if pos < 0 {
		// A node's seeds lie in the buffer its parent partitioned into.
		w := window{end: int32(off + len(seeds)), part: -1}
		if depth > 0 {
			w.part = int8((depth - 1) % 2)
		}
		b.leaves = append(b.leaves, w)
		return
	}
	// Counting partition: the groups lie back to back in the node's window
	// of this depth's buffer, in ascending value order. Capacities are
	// clipped: leaf seed slices are shared read-only through TreeLeafModel,
	// and an append to one must never reach a sibling's window.
	var count, next [16]int
	for _, a := range seeds {
		count[a.Nybble(pos)]++
	}
	sum := 0
	for v, c := range count {
		next[v] = sum
		sum += c
	}
	grouped := b.part[depth%2][off : off+len(seeds)]
	for _, a := range seeds {
		v := a.Nybble(pos)
		grouped[next[v]] = a
		next[v]++
	}
	for v, c := range count {
		if c > 0 {
			start := next[v] - c
			b.mine(grouped[start:next[v]:next[v]], off+start, depth+1)
		}
	}
}

// splitPos is the split decision: the position a node of these seeds at
// this depth splits on, or -1 for a leaf.
func (b *treeBuild) splitPos(seeds []ipaddr.Addr, depth int) int {
	varying := varyingPositions(seeds)
	prefix := varying & (1<<prefixPositions - 1)
	if prefix == 0 && (len(seeds) <= b.minLeaf || depth >= ipaddr.NybbleCount) {
		return -1
	}
	candidates := varying
	if prefix != 0 {
		candidates = prefix
	}
	pos := b.h(seeds, candidates)
	if pos < 0 || varying&(1<<pos) == 0 {
		return -1
	}
	return pos
}

// prefixPositions is how many leading nybbles are always fully split:
// top-level allocations (distinct /32s) must never share a leaf, or merged
// patterns would generate into address space no seed came from.
const prefixPositions = 8

// varyingPositions returns, as a SplitHeuristic candidate mask, the
// positions with more than one observed value: those where some seed's
// nybble differs from the first seed's.
func varyingPositions(seeds []ipaddr.Addr) uint32 {
	if len(seeds) == 0 {
		return 0
	}
	first := seeds[0]
	var hi, lo uint64
	for _, a := range seeds[1:] {
		hi |= a.Hi() ^ first.Hi()
		lo |= a.Lo() ^ first.Lo()
	}
	return nonzeroNybbleMask(hi) | nonzeroNybbleMask(lo)<<16
}

// nonzeroNybbleMask sets bit i for each nonzero nybble i of x, counting from
// the most significant.
func nonzeroNybbleMask(x uint64) uint32 {
	var m uint32
	for i := 0; x != 0; i++ {
		if x>>60 != 0 {
			m |= 1 << i
		}
		x <<= 4
	}
	return m
}
