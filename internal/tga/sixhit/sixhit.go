// Package sixhit implements 6Hit (Hou et al., INFOCOM 2021): the first
// fully online tree TGA. It builds a 6Tree-style space tree, then treats
// leaf selection as a multi-armed bandit: each leaf carries a Q-value
// updated from batch hit rates, and generation is ε-greedy — mostly the
// best-Q leaves, with a random exploration slice. The tree is recreated
// periodically around accumulated hits.
//
// Policy over tga.LeafSearch: leaves rank by Q; all but ε of the batch goes
// down that ranking in geometric shares and the rest to uniformly random
// live leaves; a probe counts when its result arrives, and Q moves toward
// each round's per-leaf hit rate over what was proposed that round. Every
// rebuildEvery rounds the tree regrows around the hits and Q starts over.
package sixhit

import (
	"fmt"
	"math/rand"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// alpha is the Q-value learning rate.
const alpha = 0.3

// Generator is the 6Hit TGA. Construct with New.
type Generator struct {
	// epsilon is the random-exploration share (default 0.1).
	epsilon float64
	// rebuildEvery recreates the tree after this many feedback rounds
	// (default 16).
	rebuildEvery int
	// seed drives exploration randomness (default 1).
	seed int64

	rng    *rand.Rand
	seeds  []ipaddr.Addr
	search *tga.LeafSearch
	q      map[*tga.TreeNode]float64 // leaves not yet updated are at initialQ
	batchN map[*tga.TreeNode]int     // proposed this round
	batchH map[*tga.TreeNode]int     // hits this round
	hits   []ipaddr.Addr
	rounds int
}

// initialQ is optimistic, which encourages trying every region once.
const initialQ = 0.5

// New returns a 6Hit generator with default parameters.
func New() *Generator {
	return &Generator{epsilon: 0.1, rebuildEvery: 16, seed: 1}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Hit" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

// ModelParams implements tga.ModelBuilder: 6Tree's space tree. The bandit
// knobs (epsilon, alpha, rebuildEvery, seed) steer the online search.
func (g *Generator) ModelParams() string { return tga.LeftmostTree }

// BuildModel implements tga.ModelBuilder: the initial 6Tree-style space
// tree over the (deduplicated) seeds — on canonical seeds, 6Tree's tree.
// Later rebuilds fold hits in and stay per-run.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	return tga.MineTree(ipaddr.DedupSorted(seeds), tga.MinLeaf, tga.SplitLeftmost)
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixhit: model type %T", m)
	}
	if g.epsilon <= 0 {
		g.epsilon = 0.1
	}
	if g.rebuildEvery <= 0 {
		g.rebuildEvery = 16
	}
	g.rng = rand.New(rand.NewSource(g.seed))
	g.seeds = seeds
	g.search = tga.NewLeafSearch(tm.Leaves(), func(a, b *tga.TreeNode) bool { return g.qOf(a) > g.qOf(b) },
		func(l *tga.TreeNode, got int) { g.batchN[l] += got })
	g.q = make(map[*tga.TreeNode]float64)
	g.batchN = make(map[*tga.TreeNode]int)
	g.batchH = make(map[*tga.TreeNode]int)
	return nil
}

// Init builds the initial tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

func (g *Generator) qOf(l *tga.TreeNode) float64 {
	if q, ok := g.q[l]; ok {
		return q
	}
	return initialQ
}

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext).
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.search.ShareCandidates(set) }

// NextBatch spends (1-ε) of the batch on the highest-Q leaves and ε on
// uniformly random leaves.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	return g.search.NextBatch(n, n-int(float64(n)*g.epsilon), 8, g.rng.Intn)
}

// Feedback updates Q-values from the round's hit rates and periodically
// recreates the tree.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	g.search.Resolve(results, func(l *tga.TreeNode, r tga.ProbeResult) {
		if r.Active {
			g.batchH[l]++
			l.Hits++
			g.hits = append(g.hits, r.Addr)
		}
		l.Probes++
	})
	for l, n := range g.batchN {
		if n == 0 {
			continue
		}
		reward := float64(g.batchH[l]) / float64(n)
		g.q[l] = (1-alpha)*g.qOf(l) + alpha*reward
	}
	clear(g.batchN)
	clear(g.batchH)

	g.rounds++
	if g.rounds%g.rebuildEvery == 0 {
		g.search.Rebuild(g.seeds, g.hits, tga.MinLeaf, tga.SplitLeftmost)
		clear(g.q) // the new leaves start over at initialQ
	}
}
