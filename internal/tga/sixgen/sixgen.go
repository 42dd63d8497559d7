// Package sixgen implements 6Gen (Murdock et al., IMC 2017): seed
// clustering by nybble Hamming distance. Each cluster's range is the
// per-position union of its members' values; clusters grow greedily by
// absorbing the nearest seeds while the seed density of the resulting
// range stays highest. Generation enumerates the densest cluster ranges
// first.
//
// 6Gen also originated the online /96 dealiasing test this repository's
// alias package implements; as a generator it runs offline.
//
// Policy over tga.Expander: clusters are added densest first, a cluster
// weighs the square root of its size, and a visit takes four addresses per
// member, capped at a quarter of the batch.
package sixgen

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/tga"
)

// clusterRadius is the nybble distance within which seeds join an
// existing cluster.
const clusterRadius = 4

// Generator is the 6Gen TGA. Construct with New.
type Generator struct {
	// clusterCap caps the number of tracked clusters; further seeds join
	// their /64's first cluster regardless of radius (default 4096).
	clusterCap int

	clusters *tga.Expander
}

// absorb widens c's range to include a.
func (c *clusterModel) absorb(a ipaddr.Addr) {
	for i := 0; i < ipaddr.NybbleCount; i++ {
		c.Masks[i] |= 1 << a.Nybble(i)
	}
	c.Size++
}

// model is 6Gen's cacheable mined model: the clusters in density order,
// without per-run enumerator state.
type model struct {
	Clusters []clusterModel
}

// clusterModel is one mined cluster: its first member, the cluster
// representative, the union of its members' values and their number.
type clusterModel struct {
	Rep   ipaddr.Addr
	Masks [ipaddr.NybbleCount]tga.ValueMask
	Size  int
}

// New returns a 6Gen generator with default parameters.
func New() *Generator { return &Generator{clusterCap: 4096} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Gen" }

// Online implements tga.Generator. 6Gen generation is offline.
func (g *Generator) Online() bool { return false }

func (g *Generator) maxClusters() int {
	if g.clusterCap <= 0 {
		return 4096
	}
	return g.clusterCap
}

// ModelParams implements tga.ModelBuilder.
func (g *Generator) ModelParams() string {
	return fmt.Sprintf("6gen/radius=%d,maxclusters=%d", clusterRadius, g.maxClusters())
}

// mineClusters is the greedy clustering in seed order, in dst's storage,
// with the global cluster cap: once the cap is reached, seeds join their
// prefix's first cluster regardless of radius.
func mineClusters(dst []clusterModel, seeds []ipaddr.Addr, radius, maxClusters int) []clusterModel {
	// Seeds sharing their top 16 nybbles are clustering candidates
	// (cross-prefix seeds are farther than any useful radius anyway).
	// Canonical seeds sharing them lie back to back, so a seed's
	// candidates are the clusters opened since its prefix's first seed.
	clusters, first := dst[:0], 0
	for i, a := range seeds {
		if i > 0 && a.Hi() != seeds[i-1].Hi() {
			first = len(clusters)
		}
		best, bestDist := -1, radius+1
		for j := first; j < len(clusters); j++ {
			if d := clusters[j].Rep.NybbleDistance(a); d < bestDist {
				best, bestDist = j, d
			}
		}
		if best < 0 && len(clusters) >= maxClusters && len(clusters) > first {
			best = first
		}
		if best < 0 {
			clusters = append(clusters, clusterModel{Rep: a})
			best = len(clusters) - 1
		}
		clusters[best].absorb(a)
	}
	return clusters
}

// clusterBufs keeps finished BuildModels' clustering buffers, one per
// concurrent build of the experiment grid.
var clusterBufs = memo.NewFreeList(scribbleClusters)

// scribbleClusters is the free list's poison (memo.NewFreeList): the
// buffer holds junk clusters out to its capacity.
func scribbleClusters(clusters []clusterModel) {
	clusters = clusters[:cap(clusters)]
	for i := range clusters {
		clusters[i] = clusterModel{Rep: ipaddr.AddrFrom64s(0x3fff_0bad_0000_0000, 0x6), Size: -1}
	}
}

// BuildModel implements tga.ModelBuilder: it mines the clusters, in a
// buffer off the free list, and snapshots them in density order. The
// model is all it allocates.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixgen: empty seed set")
	}
	buf, _ := clusterBufs.Get()
	clusters := mineClusters(buf, seeds, clusterRadius, g.maxClusters())
	// Density order: seeds per range combination, descending, then size.
	density := func(c *clusterModel) float64 { return float64(c.Size) / tga.MaskSize(c.Masks) }
	slices.SortStableFunc(clusters, func(a, b clusterModel) int {
		return cmp.Or(cmp.Compare(density(&b), density(&a)), cmp.Compare(b.Size, a.Size))
	})
	m := &model{Clusters: slices.Clone(clusters)}
	clusterBufs.Recycle(clusters, cap(clusters))
	return m, nil
}

// InitFromModel implements tga.ModelBuilder: it materializes fresh
// per-run enumerators over the mined clusters.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	mm, ok := m.(*model)
	if !ok {
		return fmt.Errorf("sixgen: model type %T", m)
	}
	g.clusters = tga.NewExpander(len(mm.Clusters), func(i int) (*[ipaddr.NybbleCount]tga.ValueMask, float64, int) {
		c := &mm.Clusters[i]
		return &c.Masks, math.Sqrt(float64(c.Size)), 4 * c.Size
	})
	return nil
}

// Init clusters the seeds and prepares range enumerators.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// NextBatch enumerates ranges weighted by cluster size, densest-first.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	return g.AppendBatch(make([]ipaddr.Addr, 0, n), n)
}

// AppendBatch is NextBatch appending to dst (see tga.RunContext).
func (g *Generator) AppendBatch(dst []ipaddr.Addr, n int) []ipaddr.Addr {
	return g.clusters.AppendBatch(dst, n, n/4+1)
}

// Lend implements the driver's run scratch (see tga.RunContext).
func (g *Generator) Lend(sc *tga.Scratch) { g.clusters.Lend(sc) }

// Feedback implements tga.Generator; 6Gen ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}
