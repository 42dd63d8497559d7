package sixgraph

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// refDerive is Derive as it was before it took its join's working memory
// from joinScratches: the same join over rows, union-find and slots
// allocated for the one call. It is kept here as the reference Derive
// must agree with, cluster for cluster.
func refDerive(tm *tga.TreeModel, mergeDist int) *model {
	leaves := tm.LeafModels
	parent := make([]int32, len(leaves))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	rows := make([]packedRow, len(leaves))
	for i := range leaves {
		rows[i] = packedRow{pack(&leaves[i].Masks), int32(i)}
	}
	slices.SortFunc(rows, func(a, b packedRow) int {
		if c := cmp.Compare(a.masks[0], b.masks[0]); c != 0 {
			return c
		}
		return cmp.Compare(a.masks[1], b.masks[1])
	})
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && [bucketWords]uint64(rows[hi].masks[:bucketWords]) == [bucketWords]uint64(rows[lo].masks[:bucketWords]) {
			hi++
		}
		for x := lo; x < hi; x++ {
			for y := x + 1; y < hi; y++ {
				if withinDistance(&rows[x].masks, &rows[y].masks, mergeDist) {
					parent[find(rows[x].leaf)] = find(rows[y].leaf)
				}
			}
		}
		lo = hi
	}
	var clusters []clusterModel
	slot := make([]int32, len(leaves))
	for i := range leaves {
		r := find(int32(i))
		if slot[r] == 0 {
			clusters = append(clusters, clusterModel{})
			slot[r] = int32(len(clusters))
		}
		c := &clusters[slot[r]-1]
		for p, m := range leaves[i].Masks {
			c.Masks[p] |= m
		}
		c.Seeds += len(leaves[i].Seeds)
	}
	slices.SortStableFunc(clusters, func(a, b clusterModel) int { return cmp.Compare(b.Seeds, a.Seeds) })
	return &model{Clusters: clusters}
}

// randomTree is the min-entropy tree, as DET mines it, of up to n random
// seeds from rng: up to 16 /32s, the join's buckets, and a few /64s in
// each, with low-byte and structured interface identifiers.
func randomTree(t testing.TB, rng *rand.Rand, n int) *tga.TreeModel {
	t.Helper()
	set := ipaddr.NewSetCap(n)
	nets := 1 + rng.Intn(16)
	for i := 0; i < n; i++ {
		hi := 0x20010000_00000000 | uint64(rng.Intn(nets))<<32 | uint64(rng.Intn(1+rng.Intn(32)))
		lo := uint64(rng.Intn(64))
		if rng.Intn(3) == 0 {
			lo = uint64(rng.Intn(16))<<32 | uint64(rng.Intn(16))<<8 | uint64(rng.Intn(16))
		}
		set.Add(ipaddr.AddrFrom64s(hi, lo))
	}
	m, err := tga.MineTree(set.Sorted(), tga.MinLeaf, tga.SplitMinEntropy)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*tga.TreeModel)
}

func derive(t testing.TB, tm *tga.TreeModel, mergeDist int) *model {
	t.Helper()
	m, err := (&Generator{mergeDist: mergeDist}).Derive(tm)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*model)
}

// drainJoinScratches empties the join's free list, so the next Derive
// starts cold and the one after takes the scratch the first gave back.
func drainJoinScratches() {
	for {
		if _, ok := joinScratches.Get(); !ok {
			return
		}
	}
}

// TestDeriveMatchesReference holds Derive to refDerive over random trees
// at merge distances 1 to 3, each derived cold (the free list empty) and
// then warm, on the scratch the cold call gave back.
func TestDeriveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 16; trial++ {
		tm := randomTree(t, rng, 1+rng.Intn(3000))
		for d := 1; d <= 3; d++ {
			want := refDerive(tm, d)
			drainJoinScratches()
			for _, temp := range []string{"cold", "warm"} {
				if got := derive(t, tm, d); !slices.Equal(got.Clusters, want.Clusters) {
					t.Fatalf("trial %d (%d leaves), distance %d, %s scratch: %d clusters, the reference %d, or other masks or counts",
						trial, len(tm.LeafModels), d, temp, len(got.Clusters), len(want.Clusters))
				}
			}
		}
	}
}

// TestConcurrentDeriveMatchesReference derives from eight goroutines at
// once, as the experiment grid's cells do through the model cache, and
// holds every model to refDerive, including after the goroutine's later
// calls. Run under -race.
func TestConcurrentDeriveMatchesReference(t *testing.T) {
	const goroutines, calls = 8, 8
	var trees [goroutines][calls]*tga.TreeModel
	var want [goroutines][calls]*model
	rng := rand.New(rand.NewSource(2))
	for g := range trees {
		for c := range trees[g] {
			trees[g][c] = randomTree(t, rng, 1+rng.Intn(2000))
			want[g][c] = refDerive(trees[g][c], 2)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got [calls]*model
			for c := range trees[g] {
				got[c] = derive(t, trees[g][c], 2)
			}
			for c := range got {
				if !slices.Equal(got[c].Clusters, want[g][c].Clusters) {
					t.Errorf("goroutine %d call %d: %d clusters, the reference %d, or other masks or counts",
						g, c, len(got[c].Clusters), len(want[g][c].Clusters))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
