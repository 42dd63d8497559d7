// Package sixtree implements 6Tree (Liu et al., Computer Networks 2019):
// divisive hierarchical clustering of the seed set into a space tree,
// splitting on the most significant varying nybble, followed by expansion
// of leaf regions in seed-density order. 6Tree is the ancestor of most
// tree-based TGAs and — per the paper's RQ4 — still outperforms several of
// its successors.
//
// Policy over tga.Expander: a leaf weighs its seed count and a visit takes
// four addresses per seed, uncapped — small leaves are visited briefly, so
// a batch spreads across many regions, and that breadth is what makes 6Tree
// competitive on AS diversity.
package sixtree

import (
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Tree TGA. Construct with New.
type Generator struct {
	leaves *tga.Expander
}

// New returns a 6Tree generator.
func New() *Generator { return &Generator{} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Tree" }

// Online implements tga.Generator. 6Tree generates from the static tree.
func (g *Generator) Online() bool { return false }

// ModelParams implements tga.ModelBuilder: the leftmost-split space tree
// with the fixed tga.MinLeaf, which 6Scan and 6Hit mine too.
func (g *Generator) ModelParams() string { return tga.LeftmostTree }

// BuildModel implements tga.ModelBuilder: it mines the space tree.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	return tga.MineTree(seeds, tga.MinLeaf, tga.SplitLeftmost)
}

// InitFromModel implements tga.ModelBuilder: it adopts a mined tree and
// builds fresh run state over it.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixtree: model type %T", m)
	}
	g.leaves = tga.NewExpander(len(tm.LeafModels), func(i int) (*[ipaddr.NybbleCount]tga.ValueMask, float64, int) {
		l := &tm.LeafModels[i]
		return &l.Masks, float64(len(l.Seeds)), 4 * len(l.Seeds)
	})
	return nil
}

// Init builds the space tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// NextBatch allocates n candidates across leaves proportionally to seed
// weight.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	return g.AppendBatch(make([]ipaddr.Addr, 0, n), n)
}

// AppendBatch is NextBatch appending to dst (see tga.RunContext).
func (g *Generator) AppendBatch(dst []ipaddr.Addr, n int) []ipaddr.Addr {
	return g.leaves.AppendBatch(dst, n, n)
}

// Lend implements the driver's run scratch (see tga.RunContext).
func (g *Generator) Lend(sc *tga.Scratch) { g.leaves.Lend(sc) }

// Feedback implements tga.Generator; 6Tree ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}
