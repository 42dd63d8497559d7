package tga

import (
	"context"
	"errors"

	"seedscan/internal/ipaddr"
)

// Model is an opaque seed model mined by a ModelBuilder: the expensive,
// immutable product of Init (6Gen's clustering, Entropy/IP's segment
// tables, the tree TGAs' space trees, 6Sense's Markov arms) separated from
// the per-run mutable state (enumerators, dedup sets, reward counters).
// A Model must be treated as read-only by every holder, which is what
// makes it safe to share across runs, protocols, and goroutines.
type Model any

// ModelBuilder is the optional generator surface that splits model
// construction out of Init. All ten generators implement it; the driver
// and the cross-run model cache (internal/tga/modelcache) use it to mine
// a seed model once and reuse it for every run over the same treatment.
//
// The contract: BuildModel is deterministic given canonical seeds, touches
// no run state, and returns an immutable Model. InitFromModel replaces
// Init, adopting a Model previously produced from the same seeds by any
// builder with the same ModelParams; it must create fresh mutable run
// state and must not write through the Model. Init remains equivalent to
// BuildModel followed by InitFromModel.
type ModelBuilder interface {
	Generator
	// ModelParams names the model BuildModel mines: two builders that
	// return the same value build equal models from equal seeds, and so
	// may adopt each other's. The value starts with what is mined (a
	// generator's own name, or a model several generators share, like
	// LeftmostTree) and canonically encodes every parameter that shapes it
	// (clustering radius, entropy threshold...). Runtime-only knobs —
	// sampling seeds, exploration shares — are excluded: they do not
	// change what BuildModel produces.
	ModelParams() string
	// BuildModel mines the seed model. Seeds must be canonical
	// (Generator.Init's contract).
	BuildModel(seeds []ipaddr.Addr) (Model, error)
	// InitFromModel adopts m (built from the same seeds and params) in
	// place of Init.
	InitFromModel(m Model, seeds []ipaddr.Addr) error
}

// ModelDeriver is the optional ModelBuilder surface of a model computed
// from another builder's model over the same seeds: 6Graph merges the
// leaves of DET's min-entropy tree. A model cache resolves Base through
// itself, so the base is mined once for every builder that names it, and
// builds the derived model as Derive of it.
//
// The contract: on canonical seeds, BuildModel(seeds) equals
// Derive(Base().BuildModel(seeds)), and Derive only reads base.
type ModelDeriver interface {
	// Base returns the builder of the model Derive starts from.
	Base() ModelBuilder
	// Derive computes the model from base, Base's model of the seeds.
	Derive(base Model) (Model, error)
}

// The ModelParams of the two space trees the tree TGAs share: MineTree
// with MinLeaf and SplitLeftmost (6Tree, 6Scan, 6Hit) or SplitMinEntropy
// (DET, AddrMiner, and 6Graph as its ModelDeriver base).
const (
	LeftmostTree   = "tree/leftmost"
	MinEntropyTree = "tree/minentropy"
)

// InitByModel is Generator.Init for a ModelBuilder: mine the model, then
// adopt it.
func InitByModel(g ModelBuilder, seeds []ipaddr.Addr) error {
	m, err := g.BuildModel(seeds)
	if err != nil {
		return err
	}
	return g.InitFromModel(m, seeds)
}

// ModelSource resolves a generator's mined model, typically from a
// cross-run cache. RunConfig.Models plugs one into the driver.
type ModelSource interface {
	GetOrBuild(ctx context.Context, g ModelBuilder, seeds []ipaddr.Addr) (Model, error)
}

// TreeLeafModel is one leaf of a mined space tree: the pattern masks and
// the seed group that produced them. Both are read-only.
type TreeLeafModel struct {
	Masks [ipaddr.NybbleCount]ValueMask
	Seeds []ipaddr.Addr
}

// TreeModel is the reusable product of space-tree construction: the leaves
// in DHC (depth-first, value-sorted) order, decoupled from the mutable
// TreeNode run state (LeafGen cursors, online probe/hit counters). It is
// the shared Model type of the four tree TGAs (6Tree, DET, 6Hit, 6Scan)
// and AddrMiner, and the base 6Graph derives its merged patterns from.
type TreeModel struct {
	LeafModels []TreeLeafModel
}

// MineTree is the tree TGAs' BuildModel: the leaves of the space tree over
// seeds, split by h down to minLeaf seeds.
func MineTree(seeds []ipaddr.Addr, minLeaf int, h SplitHeuristic) (Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("tga: empty seed set")
	}
	return mineTree(seeds, minLeaf, h), nil
}

// Leaves materializes fresh leaf nodes — zeroed online counters, no
// generator until the first draw — each pointing at its read-only leaf of
// the model. Each call returns independent nodes, so many runs can adopt
// one model. The nodes are one slab: adopting a model costs two
// allocations however many leaves it has, and a run pays for the
// generators of only the leaves it draws from.
func (m *TreeModel) Leaves() []*TreeNode {
	nodes := make([]TreeNode, len(m.LeafModels))
	out := make([]*TreeNode, len(m.LeafModels))
	for i := range m.LeafModels {
		nodes[i].TreeLeafModel = &m.LeafModels[i]
		out[i] = &nodes[i]
	}
	return out
}
