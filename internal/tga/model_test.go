package tga

import (
	"math/rand"
	"slices"
	"sync/atomic"
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

func treesEqual(t *testing.T, a, b *TreeNode) {
	t.Helper()
	if a.SplitPos != b.SplitPos {
		t.Fatalf("SplitPos %d != %d", a.SplitPos, b.SplitPos)
	}
	// The partitions below an internal node overwrite its window of the
	// build's buffers: it must not keep a slice that now reads as someone
	// else's seeds.
	if !a.IsLeaf() && (a.Seeds != nil || b.Seeds != nil) {
		t.Fatalf("internal node splitting at %d kept %d and %d seeds", a.SplitPos, len(a.Seeds), len(b.Seeds))
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("seed count %d != %d", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
	if a.Masks != b.Masks {
		t.Fatalf("masks differ at node with %d seeds", len(a.Seeds))
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("child count %d != %d", len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		treesEqual(t, a.Children[i], b.Children[i])
	}
}

func TestBuildTreeParallelMatchesSerial(t *testing.T) {
	seeds := synthSeeds(t, 6000)
	for _, h := range []struct {
		name string
		fn   SplitHeuristic
	}{{"leftmost", SplitLeftmost}, {"minentropy", SplitMinEntropy}} {
		t.Run(h.name, func(t *testing.T) {
			// minLeaf 1 grows the deepest trees, where the two partition
			// buffers are reused the most.
			for _, minLeaf := range []int{4, 1} {
				serial := BuildTree(seeds, minLeaf, h.fn)
				par := BuildTreeParallel(seeds, minLeaf, h.fn)
				if serial.IsLeaf() {
					t.Fatal("root did not split")
				}
				treesEqual(t, serial, par)
				// The leaves a run adopts: same patterns, same seed groups in
				// the same order, and together a partition of the input that
				// keeps input (ascending) order within each group — no
				// partition further down wrote over a leaf's window.
				sl, pl := serial.Leaves(), par.Leaves()
				if len(sl) != len(pl) {
					t.Fatalf("leaf count %d != %d", len(sl), len(pl))
				}
				union := ipaddr.NewSet()
				total := 0
				for i := range sl {
					if sl[i].Masks != pl[i].Masks {
						t.Fatalf("leaf %d masks differ", i)
					}
					if len(sl[i].Seeds) == 0 || len(sl[i].Seeds) != len(pl[i].Seeds) {
						t.Fatalf("leaf %d seed count %d, %d", i, len(sl[i].Seeds), len(pl[i].Seeds))
					}
					for j, a := range sl[i].Seeds {
						if a != pl[i].Seeds[j] {
							t.Fatalf("leaf %d seed %d differs", i, j)
						}
						if j > 0 && !sl[i].Seeds[j-1].Less(a) {
							t.Fatalf("leaf %d seeds out of input order at %d", i, j)
						}
					}
					if sl[i].Masks != ObservedMasks(sl[i].Seeds) {
						t.Fatalf("leaf %d masks are not its seeds' observed values", i)
					}
					union.AddAll(sl[i].Seeds)
					total += len(sl[i].Seeds)
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
	// Sibling groups share one backing array and the parallel builder
	// gives siblings to different goroutines: an append to one child's
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

func TestBuildTreeAutoThreshold(t *testing.T) {
	seeds := synthSeeds(t, 512)
	old := ParallelMineThreshold
	defer func() { ParallelMineThreshold = old }()
	ParallelMineThreshold = 1 // force the parallel path on a small set
	treesEqual(t, BuildTree(seeds, 4, SplitLeftmost), BuildTreeAuto(seeds, 4, SplitLeftmost))
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

func TestMineParallelCoversAll(t *testing.T) {
	const n = 1000
	var marks [n]int32
	MineParallel(n, func(i int) { atomic.AddInt32(&marks[i], 1) })
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
	MineParallel(0, func(i int) { t.Fatal("called for n=0") })
}
