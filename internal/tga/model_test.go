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

// internalNodesDropSeeds fails if an internal node kept its seeds: the
// partitions below it overwrite its window of the build's buffers, so a
// kept slice would now read as someone else's seeds.
func internalNodesDropSeeds(t *testing.T, n *TreeNode) {
	t.Helper()
	if n.IsLeaf() {
		return
	}
	if n.Seeds != nil {
		t.Fatalf("internal node splitting at %d kept %d seeds", n.SplitPos, len(n.Seeds))
	}
	for _, c := range n.Children {
		internalNodesDropSeeds(t, c)
	}
}

func TestBuildTreeLeavesPartitionInput(t *testing.T) {
	seeds := synthSeeds(t, 6000)
	for _, h := range []struct {
		name string
		fn   SplitHeuristic
	}{{"leftmost", SplitLeftmost}, {"minentropy", SplitMinEntropy}} {
		t.Run(h.name, func(t *testing.T) {
			// minLeaf 1 grows the deepest trees, where the two partition
			// buffers are reused the most.
			for _, minLeaf := range []int{4, 1} {
				root := BuildTree(seeds, minLeaf, h.fn)
				if root.IsLeaf() {
					t.Fatal("root did not split")
				}
				internalNodesDropSeeds(t, root)
				// The leaves a run adopts are a partition of the input that
				// keeps input (ascending) order within each group — no
				// partition further down wrote over a leaf's window — and
				// their patterns are their seeds' observed values.
				union := ipaddr.NewSet()
				total := 0
				for i, l := range root.Leaves() {
					if len(l.Seeds) == 0 {
						t.Fatalf("leaf %d is empty", i)
					}
					for j, a := range l.Seeds {
						if j > 0 && !l.Seeds[j-1].Less(a) {
							t.Fatalf("leaf %d seeds out of input order at %d", i, j)
						}
					}
					if l.Masks != ObservedMasks(l.Seeds) {
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
	// shared read-only through TreeLeafModel: an append to one child's
	// seeds must reallocate, never write into the next group.
	root := BuildTree(synthSeeds(t, 2000), 4, SplitLeftmost)
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		for _, c := range n.Children {
			if cap(c.Seeds) != len(c.Seeds) {
				t.Fatalf("child with %d seeds has capacity %d", len(c.Seeds), cap(c.Seeds))
			}
			walk(c)
		}
	}
	walk(root)
}

func TestTreeModelLeavesIndependent(t *testing.T) {
	seeds := synthSeeds(t, 1000)
	root := BuildTree(seeds, 4, SplitLeftmost)
	m := SnapshotTree(root)
	if len(m.LeafModels) != len(root.Leaves()) {
		t.Fatalf("leaf count %d != %d", len(m.LeafModels), len(root.Leaves()))
	}
	a, b := m.Leaves(), m.Leaves()
	// Materialized leaves are mutable run state: starting, advancing or
	// drying one run's LeafGen, or its counters, must not leak into another
	// run over the model.
	a[0].Probes = 99
	a[0].Gen = NewLeafGen(a[0].Masks, nil)
	a[0].Gen.Next()
	a[1].Dry = true
	if b[0].Probes != 0 {
		t.Fatal("online counters shared between materializations")
	}
	if b[0].Gen != nil || b[1].Dry {
		t.Fatal("leaf generator state shared between materializations")
	}
}
