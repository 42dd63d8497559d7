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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
	"seedscan/internal/tga/det"
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

// BuildModel implements tga.ModelBuilder: Derive of the min-entropy tree
// over the seeds, which on canonical seeds is Base's model.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	tm, err := tga.MineTree(seeds, tga.MinLeaf, tga.SplitMinEntropy)
	if err != nil {
		return nil, err
	}
	return g.Derive(tm)
}

// Base implements tga.ModelDeriver: DET, whose tga.MinEntropyTree a model
// cache shares between DET, AddrMiner and 6Graph.
func (g *Generator) Base() tga.ModelBuilder { return det.New() }

// Derive implements tga.ModelDeriver: the tree's leaves with similar
// patterns merged. Only the leaves' masks and seed counts are read.
func (g *Generator) Derive(base tga.Model) (tga.Model, error) {
	tm, ok := base.(*tga.TreeModel)
	if !ok {
		return nil, fmt.Errorf("sixgraph: base model type %T", base)
	}
	leaves := tm.LeafModels
	mergeDist := g.mergeDistance()

	// Pattern graph: union-find over leaves within the merge distance.
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

	// Bucket leaves by their leading-position masks: leaves from different
	// top-level allocations differ in many prefix positions and can never
	// merge, so only same-bucket pairs are compared. This keeps the pass
	// near-linear on Internet-scale seed sets. The leading masks are the
	// first bucketWords packed words, which the join then skips. Sorting
	// the packed rows by that key lays each bucket out side by side.
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

	// Merge components in deterministic (first leaf index) order, into
	// one slice of the final length: slot[root] is 1 + the component's
	// index, 0 until its first leaf is met.
	n := 0
	for i := range parent {
		if find(int32(i)) == int32(i) {
			n++
		}
	}
	clusters := make([]clusterModel, 0, n)
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
	// Deterministic order: biggest clusters first.
	slices.SortStableFunc(clusters, func(a, b clusterModel) int { return cmp.Compare(b.Seeds, a.Seeds) })
	return &model{Clusters: clusters}, nil
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

// packedRow is one leaf of the join: its packed masks and its index.
type packedRow struct {
	masks packedMasks
	leaf  int32
}

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

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext).
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.clusters.ShareCandidates(set) }

// Feedback implements tga.Generator; 6Graph ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}
