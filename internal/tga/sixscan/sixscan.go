// Package sixscan implements 6Scan (Hou et al., ToN 2023): a 6Tree-style
// space tree scanned dynamically. The real tool encodes the originating
// region in each probe's payload so responses re-prioritize regions
// without per-probe state; running in-process we keep the candidate→region
// map directly (the paper's authors had to patch 6Scan's scanner anyway,
// see §4.1). Regions are re-sorted by observed hit counts after every
// feedback round.
//
// 6Scan's algorithmic kinship with 6Tree is why RQ4 finds it contributes
// almost nothing when the two run together.
//
// Policy over tga.LeafSearch: regions rank by hit count, then seed count;
// topShare of the batch goes down that ranking in geometric shares and the
// cold rest round-robin, the cursor carrying over from batch to batch; a
// probe counts when proposed, and the tree is never rebuilt.
package sixscan

import (
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Scan TGA. Construct with New.
type Generator struct {
	// topShare is the batch share given to the currently hottest regions
	// (default 0.7).
	topShare float64

	search *tga.LeafSearch
	rr     int // round-robin cursor for the cold share
}

// New returns a 6Scan generator with default parameters.
func New() *Generator { return &Generator{topShare: 0.7} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Scan" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

// ModelParams implements tga.ModelBuilder: 6Tree's space tree. topShare
// only steers the online allocation.
func (g *Generator) ModelParams() string { return tga.LeftmostTree }

// BuildModel implements tga.ModelBuilder: the 6Tree-style space tree.
// 6Scan never rebuilds, so the whole tree is cacheable.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	return tga.MineTree(seeds, tga.MinLeaf, tga.SplitLeftmost)
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, _ []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixscan: model type %T", m)
	}
	if g.topShare <= 0 || g.topShare >= 1 {
		g.topShare = 0.7
	}
	g.search = tga.NewLeafSearch(tm.Leaves(), ranksAbove, func(l *tga.TreeNode, got int) { l.Probes += got })
	return nil
}

// ranksAbove is the region encoding feedback: hit count, then seed count.
func ranksAbove(a, b *tga.TreeNode) bool {
	if a.Hits != b.Hits {
		return a.Hits > b.Hits
	}
	return len(a.Seeds) > len(b.Seeds)
}

// Init builds the space tree with 6Tree's splitting order.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext).
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.search.ShareCandidates(set) }

// NextBatch spends topShare of the batch on regions sorted by region
// encoding feedback (hit count, then seed count) and the rest round-robin
// across all live regions.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	return g.search.NextBatch(n, int(float64(n)*g.topShare), 4, func(int) int {
		g.rr++
		return g.rr - 1
	})
}

// Feedback decodes each result back to its region (the in-process
// equivalent of the payload region encoding) and bumps hit counters.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	g.search.Resolve(results, func(l *tga.TreeNode, r tga.ProbeResult) {
		if r.Active {
			l.Hits++
		}
	})
}
