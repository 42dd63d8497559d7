// Package sixgraph implements 6Graph (Yang et al., Computer Networks
// 2022): entropy-guided divisive clustering like DET, but offline, with a
// graph-theoretic pattern-merging pass. Leaves whose patterns differ in
// few positions are connected in a pattern graph; connected components are
// merged into wider patterns whose value masks are unioned, and generation
// expands the merged patterns.
//
// Policy over tga.Expander: patterns are added biggest first, a pattern
// weighs 1 + log2(seeds + 1), and a visit takes one address per seed,
// capped at a quarter of the batch. The logarithm visits every pattern
// near-uniformly with a mild bias to seed-rich ones; breadth across
// patterns is what gives 6Graph its AS diversity.
package sixgraph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Graph TGA. Construct with New.
type Generator struct {
	// mergeDist joins two leaf patterns when their masks differ in at
	// most this many positions (default 2).
	mergeDist int

	model    *model // read-only; kept for the diagnostics
	clusters *tga.Expander
}

// bucketPositions is how many leading nybble positions must match exactly
// for two leaf patterns to be merge candidates. A multiple of 4, so the
// key is whole packed words.
const bucketPositions = 8

// New returns a 6Graph generator with default parameters.
func New() *Generator { return &Generator{mergeDist: 2} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Graph" }

// Online implements tga.Generator. 6Graph is offline.
func (g *Generator) Online() bool { return false }

// model is 6Graph's cacheable mined model: the merged patterns in
// biggest-first order, without per-run enumerator state.
type model struct {
	Clusters []clusterModel
}

// clusterModel is one merged pattern.
type clusterModel struct {
	Masks [ipaddr.NybbleCount]tga.ValueMask
	Seeds int
}

func (g *Generator) mergeDistance() int {
	if g.mergeDist <= 0 {
		return 2
	}
	return g.mergeDist
}

// ModelParams implements tga.ModelBuilder.
func (g *Generator) ModelParams() string {
	return fmt.Sprintf("6graph/mergedist=%d", g.mergeDistance())
}

// BuildModel implements tga.ModelBuilder: the entropy tree with similar
// leaves merged into patterns.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	// Only the leaves' patterns and seed counts are merged.
	tm, err := tga.MineTree(seeds, tga.MinLeaf, tga.SplitMinEntropy)
	if err != nil {
		return nil, err
	}
	leaves := tm.(*tga.TreeModel).LeafModels
	mergeDist := g.mergeDistance()

	// Pattern graph: union-find over leaves within the merge distance.
	parent := make([]int, len(leaves))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Bucket leaves by their leading-position masks: leaves from different
	// top-level allocations differ in many prefix positions and can never
	// merge, so only same-bucket pairs are compared. This keeps the pass
	// near-linear on Internet-scale seed sets. The leading masks are the
	// first bucketWords packed words, which the join then skips.
	packed := make([]packedMasks, len(leaves))
	buckets := make(map[[bucketWords]uint64][]int)
	for i := range leaves {
		packed[i] = pack(&leaves[i].Masks)
		key := [bucketWords]uint64(packed[i][:bucketWords])
		buckets[key] = append(buckets[key], i)
	}
	var rows []packedMasks
	for _, idx := range buckets {
		rows = rows[:0]
		for _, i := range idx {
			rows = append(rows, packed[i])
		}
		for x := range rows {
			for y := x + 1; y < len(rows); y++ {
				if withinDistance(&rows[x], &rows[y], mergeDist) {
					union(idx[x], idx[y])
				}
			}
		}
	}

	// Merge components in deterministic (leaf index) order.
	comp := make(map[int]*clusterModel)
	var clusters []*clusterModel
	for i, l := range leaves {
		r := find(i)
		c, ok := comp[r]
		if !ok {
			c = &clusterModel{}
			comp[r] = c
			clusters = append(clusters, c)
		}
		for p := 0; p < ipaddr.NybbleCount; p++ {
			c.Masks[p] |= l.Masks[p]
		}
		c.Seeds += len(l.Seeds)
	}
	// Deterministic order: biggest clusters first.
	sort.SliceStable(clusters, func(i, j int) bool { return clusters[i].Seeds > clusters[j].Seeds })
	m := &model{Clusters: make([]clusterModel, len(clusters))}
	for i, c := range clusters {
		m.Clusters[i] = *c
	}
	return m, nil
}

// InitFromModel implements tga.ModelBuilder: it materializes fresh
// per-run enumerators over the merged patterns.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	mm, ok := m.(*model)
	if !ok {
		return fmt.Errorf("sixgraph: model type %T", m)
	}
	g.model = mm
	g.clusters = tga.NewExpander(len(mm.Clusters))
	for i := range mm.Clusters {
		c := &mm.Clusters[i]
		g.clusters.Add(&c.Masks, 1+math.Log2(float64(c.Seeds)+1), c.Seeds)
	}
	return nil
}

// Init builds the entropy tree and merges similar leaves.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// packedMasks is a leaf's value masks four to a word: position p is the
// 16-bit lane p%4 of word p/4.
type packedMasks [ipaddr.NybbleCount / 4]uint64

// bucketWords is how many leading packed words the bucket key fixes.
const bucketWords = bucketPositions / 4

func pack(m *[ipaddr.NybbleCount]tga.ValueMask) packedMasks {
	var p packedMasks
	for i, v := range m {
		p[i/4] |= uint64(v) << (16 * (i % 4))
	}
	return p
}

const (
	laneLow  = 0x7fff_7fff_7fff_7fff // the low 15 bits of every lane
	laneHigh = 0x8000_8000_8000_8000 // the top bit of every lane
)

// withinDistance reports whether two same-bucket leaves differ in at most
// d mask positions. Per word it counts the non-zero lanes of the XOR:
// adding laneLow to a lane's low 15 bits carries into its top bit exactly
// when they are non-zero, and never into the next lane. Leaves of one
// bucket differ mostly in their low positions, so it walks the words from
// the last one up and stops at the first that takes the count past d.
func withinDistance(a, b *packedMasks, d int) bool {
	n := 0
	for w := len(a) - 1; w >= bucketWords; w-- {
		x := a[w] ^ b[w]
		n += bits.OnesCount64((((x & laneLow) + laneLow) | x) & laneHigh)
		if n > d {
			return false
		}
	}
	return true
}

// NextBatch allocates across the merged patterns by weight.
func (g *Generator) NextBatch(n int) []ipaddr.Addr { return g.clusters.NextBatch(n, n/4+1) }

// Feedback implements tga.Generator; 6Graph ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}
