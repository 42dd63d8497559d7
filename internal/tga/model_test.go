package tga

import (
	"math/rand"
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
)

// synthSeeds builds a sorted seed set spread over several /32s with
// clustered low nybbles, enough structure for nontrivial trees.
func synthSeeds(t testing.TB, n int) []ipaddr.Addr {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	set := ipaddr.NewSetCap(n)
	prefixes := []string{"2001:db8::", "2001:db9::", "2a01:4f8::", "2400:cb00::"}
	for set.Len() < n {
		base := ipaddr.MustParse(prefixes[rng.Intn(len(prefixes))])
		set.Add(base.AddLo(uint64(rng.Intn(1 << 14))))
	}
	return set.Sorted()
}

// refNode is a node of the space tree as it was built before MineTree
// mined the leaves straight from the partition recursion: one node per
// split, its children in ascending value order, an internal node's seeds
// dropped once its children are partitioned. It is kept here as the
// reference MineTree must agree with, leaf for leaf.
type refNode struct {
	seeds    []ipaddr.Addr
	masks    [ipaddr.NybbleCount]ValueMask
	children []*refNode
}

type refBuild struct {
	minLeaf int
	h       SplitHeuristic
	part    [2][]ipaddr.Addr
}

func refTree(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) *refNode {
	n := len(seeds)
	buf := make([]ipaddr.Addr, 2*n)
	b := &refBuild{minLeaf: max(minLeaf, 1), h: h, part: [2][]ipaddr.Addr{buf[:n:n], buf[n:]}}
	root := &refNode{seeds: seeds}
	b.build(root, 0, 0)
	return root
}

func (b *refBuild) build(n *refNode, off, depth int) {
	if !b.split(n, off, depth) {
		return
	}
	for _, child := range n.children {
		coff := off
		off += len(child.seeds) // before the child's split drops them
		b.build(child, coff, depth+1)
	}
}

func (b *refBuild) split(n *refNode, off, depth int) bool {
	varying := varyingPositions(n.seeds)
	prefix := varying & (1<<prefixPositions - 1)
	if prefix == 0 && (len(n.seeds) <= b.minLeaf || depth >= ipaddr.NybbleCount) {
		n.masks = observedMasks(n.seeds)
		return false
	}
	candidates := varying
	if prefix != 0 {
		candidates = prefix
	}
	pos := b.h(n.seeds, candidates)
	if pos < 0 || varying&(1<<pos) == 0 {
		n.masks = observedMasks(n.seeds)
		return false
	}
	var count, next [16]int
	for _, a := range n.seeds {
		count[a.Nybble(pos)]++
	}
	sum := 0
	for v, c := range count {
		next[v] = sum
		sum += c
	}
	grouped := b.part[depth%2][off : off+len(n.seeds)]
	for _, a := range n.seeds {
		v := a.Nybble(pos)
		grouped[next[v]] = a
		next[v]++
	}
	for v, c := range count {
		if c > 0 {
			n.children = append(n.children, &refNode{seeds: grouped[next[v]-c : next[v] : next[v]]})
		}
	}
	n.seeds = nil
	return true
}

// leaves appends the tree's leaves to out in DHC order.
func (n *refNode) leaves(out []*refNode) []*refNode {
	if len(n.children) == 0 {
		return append(out, n)
	}
	for _, c := range n.children {
		out = c.leaves(out)
	}
	return out
}

var heuristics = []struct {
	name string
	fn   SplitHeuristic
}{{"leftmost", SplitLeftmost}, {"minentropy", SplitMinEntropy}}

// mustMine is MineTree's tree.
func mustMine(t testing.TB, seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) *TreeModel {
	t.Helper()
	m, err := MineTree(seeds, minLeaf, h)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*TreeModel)
}

func TestMineTreeMatchesNodeTree(t *testing.T) {
	inputs := [][]ipaddr.Addr{synthSeeds(t, 6000), searchSeeds, searchSeeds[:1]}
	for _, h := range heuristics {
		t.Run(h.name, func(t *testing.T) {
			for i, seeds := range inputs {
				for _, minLeaf := range []int{4, 2, 1} {
					want := refTree(seeds, minLeaf, h.fn).leaves(nil)
					got := mustMine(t, seeds, minLeaf, h.fn).LeafModels
					if len(got) != len(want) {
						t.Fatalf("input %d, minLeaf %d: %d leaves, the node tree %d", i, minLeaf, len(got), len(want))
					}
					for j, l := range got {
						w := want[j]
						if !slices.Equal(l.Seeds, w.seeds) || l.Masks != w.masks || cap(l.Seeds) != cap(w.seeds) {
							t.Fatalf("input %d, minLeaf %d: leaf %d has %d seeds (capacity %d), the node tree's %d (capacity %d), or other seeds or masks",
								i, minLeaf, j, len(l.Seeds), cap(l.Seeds), len(w.seeds), cap(w.seeds))
						}
					}
				}
			}
		})
	}
}

func TestMineTreeLeavesPartitionInput(t *testing.T) {
	seeds := synthSeeds(t, 6000)
	for _, h := range heuristics {
		t.Run(h.name, func(t *testing.T) {
			// minLeaf 1 grows the deepest trees, where the two partition
			// buffers are reused the most.
			for _, minLeaf := range []int{4, 1} {
				leaves := mustMine(t, seeds, minLeaf, h.fn).LeafModels
				if len(leaves) < 2 {
					t.Fatal("root did not split")
				}
				// The leaves a run adopts are a partition of the input that
				// keeps input (ascending) order within each group — no
				// partition further down wrote over a leaf's window — and
				// their patterns are their seeds' observed values.
				union := ipaddr.NewSet()
				total := 0
				for i, l := range leaves {
					if len(l.Seeds) == 0 {
						t.Fatalf("leaf %d is empty", i)
					}
					for j, a := range l.Seeds {
						if j > 0 && !l.Seeds[j-1].Less(a) {
							t.Fatalf("leaf %d seeds out of input order at %d", i, j)
						}
					}
					if l.Masks != observedMasks(l.Seeds) {
						t.Fatalf("leaf %d masks are not its seeds' observed values", i)
					}
					union.AddAll(l.Seeds)
					total += len(l.Seeds)
				}
				if total != len(seeds) {
					t.Fatalf("leaves hold %d seeds, input %d", total, len(seeds))
				}
				if !slices.Equal(union.Sorted(), seeds) {
					t.Fatalf("leaves hold %d distinct seeds, not the %d of the input", union.Len(), len(seeds))
				}
			}
		})
	}
}

func TestSplitClipsChildSeedCapacity(t *testing.T) {
	// Sibling groups share one backing array, and leaf seed slices are
	// shared read-only through TreeLeafModel: an append to one leaf's
	// seeds must reallocate, never write into the next group.
	for _, l := range mustMine(t, synthSeeds(t, 2000), 4, SplitLeftmost).LeafModels {
		if cap(l.Seeds) != len(l.Seeds) {
			t.Fatalf("leaf with %d seeds has capacity %d", len(l.Seeds), cap(l.Seeds))
		}
	}
}

// TestCursorSlabIndependent: cursors read the model in place, and are
// otherwise one run's state: starting, advancing or drying one run's
// enumerators, or its counters, leaks neither into another run over the
// model nor into the next run lent the same scratch.
func TestCursorSlabIndependent(t *testing.T) {
	m := mustMine(t, synthSeeds(t, 1000), 4, SplitLeftmost)
	newRun := func(sc *Scratch) *LeafSearch {
		s := NewLeafSearch(m, func(a, b *Cursor) bool { return false }, func(c *Cursor, got int) { c.Probes += got })
		s.Lend(sc)
		return s
	}
	pick := func(int) int { return 0 }
	scA, scB := new(Scratch), new(Scratch)
	a, b := newRun(scA), newRun(scB)
	a.AppendBatch(nil, 100, 50, 1, pick)
	a.st.cursors[0].Hits = 99
	a.st.cursors[1].dry = true
	b.AppendBatch(nil, 0, 0, 0, pick) // starts b without drawing
	for i := range b.st.cursors {
		c := &b.st.cursors[i]
		if c.masks != &m.LeafModels[i].Masks || c.Seeds != len(m.LeafModels[i].Seeds) {
			t.Fatalf("cursor %d does not read the model's leaf %d", i, i)
		}
		if c.Probes != 0 || c.Hits != 0 || c.gen != 0 || c.dry {
			t.Fatalf("cursor %d of a second run has run state: %+v", i, *c)
		}
	}
	if len(a.st.gens) == 0 || len(b.st.gens) != 0 {
		t.Fatalf("enumerator slabs of %d and %d, want the first run's only", len(a.st.gens), len(b.st.gens))
	}

	// The scratch taken back and lent to the next run comes back fresh.
	a.Lend(nil)
	scA.seen.Reset(0)
	next := newRun(scA)
	next.AppendBatch(nil, 0, 0, 0, pick)
	for i, c := range next.st.cursors {
		if c.Probes != 0 || c.Hits != 0 || c.gen != 0 || c.dry {
			t.Fatalf("cursor %d of the next run over recycled scratch has run state: %+v", i, c)
		}
	}
	if len(next.st.gens) != 0 || len(next.st.pending) != 0 || len(next.st.hits) != 0 {
		t.Fatal("the next run over recycled scratch inherited enumerators, proposals or hits")
	}
}
