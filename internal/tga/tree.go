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

// TreeNode is one node of a space tree. Leaves carry the pattern masks;
// the leaves a run generates from (Leaves) also carry a generator and
// per-leaf online statistics.
type TreeNode struct {
	// Seeds is a leaf's seed group, in input order. An internal node's is
	// nil once it has split: the partitions below it reuse its window of
	// the build's buffers (see treeBuild), and its seeds are its leaves'.
	Seeds    []ipaddr.Addr
	SplitPos int
	Children []*TreeNode

	// Leaf state. Gen is nil until a run first draws from the leaf: a
	// generator starting over Masks then yields what one started earlier
	// would have. Dry is set once the generator has run out, and Gen is
	// dropped with it.
	Masks [ipaddr.NybbleCount]ValueMask
	Gen   *LeafGen
	Dry   bool

	// Online statistics, updated by adaptive generators.
	Probes int
	Hits   int
}

// IsLeaf reports whether the node has no children.
func (n *TreeNode) IsLeaf() bool { return len(n.Children) == 0 }

// MinLeaf is the leaf size every tree TGA (6Tree, DET, 6Hit, 6Scan,
// 6Graph) mines and rebuilds its space tree with: a node of fewer seeds
// does not split.
const MinLeaf = 4

// BuildTree grows a space tree over the seeds: each node splits on the
// position chosen by h until minLeaf seeds or no varying position remains.
// Every leaf gets its observed-value masks.
func BuildTree(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) *TreeNode {
	n := len(seeds)
	buf := make([]ipaddr.Addr, 2*n)
	b := &treeBuild{minLeaf: max(minLeaf, 1), h: h, part: [2][]ipaddr.Addr{buf[:n:n], buf[n:]}}
	root := &TreeNode{Seeds: seeds}
	b.build(root, 0, 0)
	return root
}

// treeBuild is one tree construction: the split rule and the two buffers
// the nodes partition their seeds into. The node at depth d whose seeds
// are the window [off, off+len(Seeds)) of the input order writes its
// children's groups into part[d%2] at that same window, so each depth
// reuses the buffer two depths up. A leaf's window is never written again
// — nothing descends from it — while an internal node's is overwritten,
// in part, by its children's partitions, which is why split drops an
// internal node's Seeds.
type treeBuild struct {
	minLeaf int
	h       SplitHeuristic
	part    [2][]ipaddr.Addr
}

func (b *treeBuild) build(n *TreeNode, off, depth int) {
	if !b.split(n, off, depth) {
		return
	}
	for _, child := range n.Children {
		coff := off
		off += len(child.Seeds) // before the child's split drops them
		b.build(child, coff, depth+1)
	}
}

// split is the split decision. It either finalizes n as a leaf and returns
// false, or sets n.SplitPos, gives n one child per value seen at that
// position, in ascending value order, each holding its seeds in input
// order, and drops n's own Seeds.
func (b *treeBuild) split(n *TreeNode, off, depth int) bool {
	varying := varyingPositions(n.Seeds)
	prefix := varying & (1<<prefixPositions - 1)
	if prefix == 0 && (len(n.Seeds) <= b.minLeaf || depth >= ipaddr.NybbleCount) {
		makeLeaf(n)
		return false
	}
	candidates := varying
	if prefix != 0 {
		candidates = prefix
	}
	pos := b.h(n.Seeds, candidates)
	if pos < 0 || varying&(1<<pos) == 0 {
		makeLeaf(n)
		return false
	}
	n.SplitPos = pos

	// Counting partition: the groups lie back to back in n's window of
	// this depth's buffer, in ascending value order. Capacities are clipped:
	// leaf seed slices are shared read-only through TreeLeafModel, and an
	// append to one must never reach a sibling's window.
	var count, next [16]int
	for _, a := range n.Seeds {
		count[a.Nybble(pos)]++
	}
	sum, kids := 0, 0
	for v, c := range count {
		next[v] = sum
		sum += c
		if c > 0 {
			kids++
		}
	}
	grouped := b.part[depth%2][off : off+len(n.Seeds)]
	for _, a := range n.Seeds {
		v := a.Nybble(pos)
		grouped[next[v]] = a
		next[v]++
	}
	children := make([]TreeNode, 0, kids)
	n.Children = make([]*TreeNode, 0, cap(children))
	for v, c := range count {
		if c == 0 {
			continue
		}
		children = append(children, TreeNode{Seeds: grouped[next[v]-c : next[v] : next[v]]})
		n.Children = append(n.Children, &children[len(children)-1])
	}
	n.Seeds = nil
	return true
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

func makeLeaf(n *TreeNode) {
	n.SplitPos = -1
	n.Masks = ObservedMasks(n.Seeds)
}

// Leaves returns fresh run-state copies of the tree's leaves in DHC
// (depth-first, value-sorted) order: the mined masks and seed groups, no
// generator yet, zeroed online counters. The tree itself is left as built.
func (n *TreeNode) Leaves() []*TreeNode { return SnapshotTree(n).Leaves() }

// appendLeaves appends the tree's own leaf nodes to out in DHC order.
func (n *TreeNode) appendLeaves(out []*TreeNode) []*TreeNode {
	if n.IsLeaf() {
		return append(out, n)
	}
	for _, c := range n.Children {
		out = c.appendLeaves(out)
	}
	return out
}
