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
	"errors"
	"fmt"
	"math"
	"sort"

	"seedscan/internal/ipaddr"
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

// cluster is one cluster while it is being mined.
type cluster struct {
	rep   ipaddr.Addr // first member, the cluster representative
	masks [ipaddr.NybbleCount]tga.ValueMask
	size  int
}

// absorb widens c's range to include a.
func (c *cluster) absorb(a ipaddr.Addr) {
	for i := 0; i < ipaddr.NybbleCount; i++ {
		c.masks[i] |= 1 << a.Nybble(i)
	}
	c.size++
}

// model is 6Gen's cacheable mined model: the clusters in density order,
// without per-run enumerator state.
type model struct {
	Clusters []clusterModel
}

// clusterModel is one mined cluster.
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

// mineClusters is the greedy clustering in seed order, with the global
// cluster cap: once the cap is reached, seeds join their prefix's
// first cluster regardless of radius.
func mineClusters(seeds []ipaddr.Addr, radius, maxClusters int) []*cluster {
	// Greedy clustering with a prefix index: seeds sharing their top 16
	// nybbles are clustering candidates (cross-prefix seeds are farther
	// than any useful radius anyway).
	byPrefix := make(map[uint64][]*cluster)
	var clusters []*cluster
	for _, a := range seeds {
		key := a.Hi()
		var best *cluster
		bestDist := radius + 1
		for _, c := range byPrefix[key] {
			if d := c.rep.NybbleDistance(a); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == nil && len(clusters) >= maxClusters && len(byPrefix[key]) > 0 {
			best = byPrefix[key][0]
		}
		if best == nil {
			best = &cluster{rep: a}
			byPrefix[key] = append(byPrefix[key], best)
			clusters = append(clusters, best)
		}
		best.absorb(a)
	}
	return clusters
}

// BuildModel implements tga.ModelBuilder: it mines the clusters and
// snapshots them in density order.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixgen: empty seed set")
	}
	clusters := mineClusters(seeds, clusterRadius, g.maxClusters())
	// Density order: seeds per range combination, descending.
	sort.SliceStable(clusters, func(i, j int) bool {
		di := float64(clusters[i].size) / tga.MaskSize(clusters[i].masks)
		dj := float64(clusters[j].size) / tga.MaskSize(clusters[j].masks)
		if di != dj {
			return di > dj
		}
		return clusters[i].size > clusters[j].size
	})
	m := &model{Clusters: make([]clusterModel, len(clusters))}
	for i, c := range clusters {
		m.Clusters[i] = clusterModel{Rep: c.rep, Masks: c.masks, Size: c.size}
	}
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
