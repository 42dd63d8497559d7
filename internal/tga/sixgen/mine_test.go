package sixgen

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// refBuildModel is BuildModel as it was before it mined into a recycled
// buffer: one allocated cluster per pointer, candidates looked up in a
// map from each seed's top 16 nybbles to that prefix's clusters, and the
// pointers sorted into density order. It is kept here as the reference
// BuildModel must agree with, cluster for cluster.
func refBuildModel(seeds []ipaddr.Addr, radius, maxClusters int) *model {
	byPrefix := make(map[uint64][]*clusterModel)
	var clusters []*clusterModel
	for _, a := range seeds {
		key := a.Hi()
		var best *clusterModel
		bestDist := radius + 1
		for _, c := range byPrefix[key] {
			if d := c.Rep.NybbleDistance(a); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == nil && len(clusters) >= maxClusters && len(byPrefix[key]) > 0 {
			best = byPrefix[key][0]
		}
		if best == nil {
			best = &clusterModel{Rep: a}
			byPrefix[key] = append(byPrefix[key], best)
			clusters = append(clusters, best)
		}
		best.absorb(a)
	}
	sort.SliceStable(clusters, func(i, j int) bool {
		di := float64(clusters[i].Size) / tga.MaskSize(clusters[i].Masks)
		dj := float64(clusters[j].Size) / tga.MaskSize(clusters[j].Masks)
		if di != dj {
			return di > dj
		}
		return clusters[i].Size > clusters[j].Size
	})
	m := &model{Clusters: make([]clusterModel, len(clusters))}
	for i, c := range clusters {
		m.Clusters[i] = *c
	}
	return m
}

// randomSeeds is a canonical seed set of up to n addresses drawn from rng
// in a few /64s, whose interface identifiers are near each other, spread
// out or random, so clusters of every size occur.
func randomSeeds(rng *rand.Rand, n int) []ipaddr.Addr {
	set := ipaddr.NewSetCap(n)
	nets := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		hi := 0x20010db8_00000000 | uint64(rng.Intn(nets))
		var lo uint64
		switch rng.Intn(3) {
		case 0:
			lo = uint64(rng.Intn(1 << 12))
		case 1:
			lo = uint64(rng.Intn(16))<<40 | uint64(rng.Intn(16))<<20 | uint64(rng.Intn(256))
		default:
			lo = rng.Uint64()
		}
		set.Add(ipaddr.AddrFrom64s(hi, lo))
	}
	return set.Sorted()
}

func buildModel(t testing.TB, g *Generator, seeds []ipaddr.Addr) *model {
	t.Helper()
	m, err := g.BuildModel(seeds)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*model)
}

// drainClusterBufs empties the clustering free list, so the next build
// starts cold and the one after takes the buffer the first gave back.
func drainClusterBufs() {
	for {
		if _, ok := clusterBufs.Get(); !ok {
			return
		}
	}
}

// TestBuildModelMatchesReference holds BuildModel to refBuildModel over
// random canonical seed sets at three cluster caps, each built cold (the
// free list empty) and then warm, in the buffer the cold build gave back.
func TestBuildModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 24; trial++ {
		seeds := randomSeeds(rng, 1+rng.Intn(3000))
		for _, maxClusters := range []int{4, 64, 4096} {
			want := refBuildModel(seeds, clusterRadius, maxClusters)
			drainClusterBufs()
			for _, temp := range []string{"cold", "warm"} {
				got := buildModel(t, &Generator{clusterCap: maxClusters}, seeds)
				if !slices.Equal(got.Clusters, want.Clusters) {
					t.Fatalf("trial %d (%d seeds), cap %d, %s buffer: %d clusters, the reference %d, or other clusters or order",
						trial, len(seeds), maxClusters, temp, len(got.Clusters), len(want.Clusters))
				}
			}
		}
	}
}

// TestConcurrentBuildModelMatchesReference builds from eight goroutines
// at once, as the experiment grid's cells do through the model cache, and
// holds every model to refBuildModel, including after the goroutine's
// later builds. Run under -race.
func TestConcurrentBuildModelMatchesReference(t *testing.T) {
	const goroutines, builds = 8, 8
	var inputs [goroutines][builds][]ipaddr.Addr
	var want [goroutines][builds]*model
	rng := rand.New(rand.NewSource(2))
	for g := range inputs {
		for b := range inputs[g] {
			inputs[g][b] = randomSeeds(rng, 1+rng.Intn(1500))
			want[g][b] = refBuildModel(inputs[g][b], clusterRadius, 4096)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got [builds]*model
			for b := range inputs[g] {
				got[b] = buildModel(t, New(), inputs[g][b])
			}
			for b := range got {
				if !slices.Equal(got[b].Clusters, want[g][b].Clusters) {
					t.Errorf("goroutine %d build %d: %d clusters, the reference %d, or other clusters or order",
						g, b, len(got[b].Clusters), len(want[g][b].Clusters))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
