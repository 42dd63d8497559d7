// Package addrminer implements AddrMiner (Song et al., USENIX ATC 2022) as
// an extension beyond the paper's eight studied TGAs: a DET-derived
// generator organized around long-term measurement. AddrMiner's defining
// addition is persistence — every run's discoveries are folded into a
// durable memory that seeds future runs, which is how the AddrMiner
// hitlist the paper uses as a seed source (§5.1) came to exist.
//
// The generation core reuses DET (entropy-split space tree with online
// reward allocation); this package adds the memory store with optional
// file persistence in the standard hitlist format. A run that starts with
// an empty memory mines exactly DET's tree, so it adopts DET's model from
// a cross-run cache; a run with a memory mines its own.
package addrminer

import (
	"sync"

	"seedscan/internal/ipaddr"
	"seedscan/internal/seeds"
	"seedscan/internal/tga"
	"seedscan/internal/tga/det"
)

// Store is AddrMiner's long-term memory: every address ever confirmed
// active. Safe for concurrent use; one Store may back many runs.
type Store struct {
	mu   sync.Mutex
	set  *ipaddr.Set
	path string
}

// NewStore returns an empty in-memory store.
func NewStore() *Store { return &Store{set: ipaddr.NewSet()} }

// LoadStore reads a store from a hitlist-format file; a missing file
// yields an empty store bound to the path.
func LoadStore(path string) (*Store, error) {
	s := &Store{set: ipaddr.NewSet(), path: path}
	ds, err := seeds.ReadFile(path)
	if err != nil {
		return s, nil // first run: nothing persisted yet
	}
	s.set.AddSet(ds.Addrs)
	return s, nil
}

// Len reports the number of remembered addresses.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Len()
}

// Remember records active addresses.
func (s *Store) Remember(addrs []ipaddr.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.set.AddAll(addrs)
}

// Snapshot returns a copy of the remembered addresses.
func (s *Store) Snapshot() []ipaddr.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Slice()
}

// Save writes the store to its bound path (or the given override).
func (s *Store) Save(path string) error {
	if path == "" {
		path = s.path
	}
	s.mu.Lock()
	ds := seeds.FromSet("addrminer-memory", s.set.Clone())
	s.mu.Unlock()
	return ds.WriteFile(path)
}

// Generator is the AddrMiner TGA: DET plus long-term memory.
type Generator struct {
	// memory persists across runs; nil gets a fresh private store.
	memory *Store

	inner *det.Generator
}

// New returns an AddrMiner generator over the given store (nil for a
// fresh one).
func New(store *Store) *Generator {
	if store == nil {
		store = NewStore()
	}
	return &Generator{memory: store, inner: det.New()}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "AddrMiner" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

// Init unions the run's seeds with the long-term memory before handing
// them to the DET core — the accumulated knowledge is what lets AddrMiner
// keep improving across measurement campaigns.
func (g *Generator) Init(seedAddrs []ipaddr.Addr) error {
	pool := ipaddr.NewSet(seedAddrs...)
	pool.AddAll(g.memory.Snapshot())
	return g.inner.Init(pool.Slice())
}

// ModelParams implements tga.ModelBuilder: AddrMiner mines what its DET
// core does, the min-entropy space tree.
func (g *Generator) ModelParams() string { return g.inner.ModelParams() }

// BuildModel implements tga.ModelBuilder with the DET core's miner: the
// tree over the run's seeds alone.
func (g *Generator) BuildModel(seedAddrs []ipaddr.Addr) (tga.Model, error) {
	return g.inner.BuildModel(seedAddrs)
}

// InitFromModel implements tga.ModelBuilder. While the memory is empty the
// pool Init mines is the seeds themselves, so the DET core adopts m, which
// is that tree; once the memory holds addresses, m is not the pool's tree,
// and Init mines seeds ∪ memory afresh.
func (g *Generator) InitFromModel(m tga.Model, seedAddrs []ipaddr.Addr) error {
	if g.memory.Len() == 0 {
		return g.inner.InitFromModel(m, seedAddrs)
	}
	return g.Init(seedAddrs)
}

// NextBatch delegates to the DET core.
func (g *Generator) NextBatch(n int) []ipaddr.Addr { return g.inner.NextBatch(n) }

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext).
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.inner.ShareCandidates(set) }

// Feedback forwards results to DET and commits genuine hits to memory.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	g.inner.Feedback(results)
	var hits []ipaddr.Addr
	for _, r := range results {
		if r.Active && !r.Aliased {
			hits = append(hits, r.Addr)
		}
	}
	if len(hits) > 0 {
		g.memory.Remember(hits)
	}
}
