// Package det implements DET (Song et al., ToN 2022): a space tree split
// by minimum entropy, searched online. Each batch is allocated to leaves
// by their observed hit rate, and the tree is periodically rebuilt with
// discovered active addresses folded into the seed set, letting DET hone
// in on productive regions — or, when seeds contain aliases, dive straight
// into aliased regions (the RQ1.a failure mode).
//
// Policy over tga.LeafSearch: leaves rank by smoothed hit rate, then seed
// count; 1-explore of the batch goes down that ranking in geometric shares
// and the rest round-robin from its top; a probe counts when proposed, and
// every rebuildEvery feedback rounds the tree regrows around the hits.
package det

import (
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// explore is the budget share spent uniformly across leaves regardless of
// reward.
const explore = 0.35

// Generator is the DET TGA. Construct with New.
type Generator struct {
	// rebuildEvery rebuilds the tree after this many feedback rounds
	// (default 16).
	rebuildEvery int

	seeds    []ipaddr.Addr
	search   *tga.LeafSearch
	hits     []ipaddr.Addr
	rounds   int
	rebuilds int // trees built so far, the initial one included
}

// New returns a DET generator with default parameters.
func New() *Generator {
	return &Generator{rebuildEvery: 16}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "DET" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

// ModelParams implements tga.ModelBuilder: the min-entropy space tree with
// the fixed tga.MinLeaf. rebuildEvery and explore steer the online search.
func (g *Generator) ModelParams() string { return tga.MinEntropyTree }

// BuildModel implements tga.ModelBuilder: the initial min-entropy space
// tree over the (deduplicated) seeds. Online rebuilds fold hits in and are
// per-run state, so only this first tree is cacheable.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	return tga.MineTree(ipaddr.DedupSorted(seeds), tga.MinLeaf, tga.SplitMinEntropy)
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("det: model type %T", m)
	}
	if g.rebuildEvery <= 0 {
		g.rebuildEvery = 16
	}
	g.seeds = seeds
	g.search = tga.NewLeafSearch(tm.Leaves(), ranksAbove, func(l *tga.TreeNode, got int) { l.Probes += got })
	g.rebuilds++
	return nil
}

// ranksAbove is DET's leaf ranking: smoothed hit rate with a mildly
// pessimistic prior, so probed productive leaves outrank untouched ones;
// ties (notably all-untouched leaves early on) break by seed density, which
// is what the entropy tree encodes about where hits live.
func ranksAbove(a, b *tga.TreeNode) bool {
	sa := (float64(a.Hits) + 1) / (float64(a.Probes) + 8)
	sb := (float64(b.Hits) + 1) / (float64(b.Probes) + 8)
	if sa != sb {
		return sa > sb
	}
	return len(a.Seeds) > len(b.Seeds)
}

// Init builds the initial entropy-split tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext).
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.search.ShareCandidates(set) }

// NextBatch allocates (1-explore) of the batch to leaves by descending
// reward and the rest uniformly.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	next := 0 // explore: round-robin from the top of the ranking
	return g.search.NextBatch(n, int(float64(n)*(1-explore)), 4, func(int) int {
		next++
		return next - 1
	})
}

// Feedback updates leaf rewards and folds hits into the seed pool;
// periodically the tree is rebuilt around them.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	g.search.Resolve(results, func(l *tga.TreeNode, r tga.ProbeResult) {
		if r.Active {
			l.Hits++
			g.hits = append(g.hits, r.Addr)
		}
	})
	g.rounds++
	if g.rounds%g.rebuildEvery == 0 {
		g.search.Rebuild(g.seeds, g.hits, tga.MinLeaf, tga.SplitMinEntropy)
		g.rebuilds++
	}
}
