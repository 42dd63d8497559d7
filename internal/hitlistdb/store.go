package hitlistdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"seedscan/internal/hitlist"
	"seedscan/internal/telemetry"
)

// manifestName is the swap point of a store directory: it is always
// written with a temp-file-plus-rename, so a reader never observes a
// partially written manifest, and the data file it names is always fully
// on disk before the manifest starts pointing at it.
const manifestName = "MANIFEST.json"

// manifest is the on-disk pointer to the current generation. The build
// metadata fields (epoch, built-at, record counts) are informational
// duplicates of the data file's header so operators and external watchers
// can read serving staleness without opening the database image; they are
// additive and absent in pre-epoch manifests.
type manifest struct {
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	File       string `json:"file"`
	// Epoch is the world epoch the published build scanned at.
	Epoch int `json:"epoch,omitempty"`
	// BuiltUnixNano is the build timestamp of the published generation.
	BuiltUnixNano int64 `json:"built_unixnano,omitempty"`
	// Addrs and Prefixes are the published record counts.
	Addrs    int `json:"addrs,omitempty"`
	Prefixes int `json:"prefixes,omitempty"`
}

const manifestSchema = "seedscan-hitlistdb/v1"

// StoreOption configures OpenStore.
type StoreOption func(*storeSettings)

type storeSettings struct {
	keep int
	tele *telemetry.Registry
}

// KeepGenerations sets how many generation files Publish retains on disk
// (minimum 1, default 3). In-process readers are unaffected by pruning —
// a *DB holds the full image in memory — but external late readers of a
// pruned file will fall back to the manifest's current generation.
func KeepGenerations(n int) StoreOption {
	return func(s *storeSettings) {
		if n < 1 {
			n = 1
		}
		s.keep = n
	}
}

// StoreTelemetry wires hitlistdb.* counters and gauges: publishes,
// publish errors, refreshes, the current generation, and record counts.
func StoreTelemetry(reg *telemetry.Registry) StoreOption {
	return func(s *storeSettings) { s.tele = reg }
}

// Store manages a directory of generation-numbered snapshot databases with
// one atomically-swapped current pointer.
//
// Concurrency model: Publish and Refresh serialize on an internal mutex;
// Current is a single atomic pointer load, so the query path takes no
// locks and keeps serving the old generation until the new one is fully
// durable.
type Store struct {
	dir string
	set storeSettings

	mu  sync.Mutex // serializes writers (Publish, Refresh)
	cur atomic.Pointer[DB]
}

// OpenStore opens (creating if necessary) a store directory and loads the
// current generation, if the manifest names one.
func OpenStore(dir string, opts ...StoreOption) (*Store, error) {
	set := storeSettings{keep: 3}
	for _, o := range opts {
		o(&set)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hitlistdb: open store: %w", err)
	}
	s := &Store{dir: dir, set: set}
	if _, _, err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Current returns the current generation's database, or nil when nothing
// has been published yet. The returned DB is immutable; callers may keep
// using it across any number of later publishes.
func (s *Store) Current() *DB { return s.cur.Load() }

// Generation returns the current generation number (0 when empty).
func (s *Store) Generation() uint64 {
	if db := s.Current(); db != nil {
		return db.Generation()
	}
	return 0
}

// genFile names the data file of generation g.
func genFile(g uint64) string { return fmt.Sprintf("gen-%08d.hldb", g) }

// Publish writes snap as the next generation and atomically makes it
// current: data file first (temp+rename+fsync), then the manifest rename —
// the swap point. Readers holding the previous *DB are undisturbed;
// new Current calls observe the new generation.
func (s *Store) Publish(snap *hitlist.Snapshot) (*DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Next generation: one past the newer of the in-memory current and the
	// on-disk manifest, so interleaved external publishers cannot make us
	// reuse a number.
	gen := s.Generation()
	if m, err := s.readManifest(); err == nil && m.Generation > gen {
		gen = m.Generation
	}
	gen++

	path := filepath.Join(s.dir, genFile(gen))
	if err := WriteFile(path, snap, gen); err != nil {
		s.set.tele.Counter("hitlistdb.store.publish_errors").Inc()
		return nil, err
	}
	// Re-open through the same validation path every reader uses; this is
	// also the paranoia check that what we just wrote is servable.
	db, err := Open(path)
	if err != nil {
		s.set.tele.Counter("hitlistdb.store.publish_errors").Inc()
		return nil, err
	}
	if err := s.writeManifest(manifest{
		Schema:        manifestSchema,
		Generation:    gen,
		File:          genFile(gen),
		Epoch:         db.Epoch(),
		BuiltUnixNano: db.BuiltAt().UnixNano(),
		Addrs:         db.AddrCount(),
		Prefixes:      db.PrefixCount(),
	}); err != nil {
		s.set.tele.Counter("hitlistdb.store.publish_errors").Inc()
		return nil, err
	}
	s.cur.Store(db)
	s.set.tele.Counter("hitlistdb.store.publishes").Inc()
	s.set.tele.Gauge("hitlistdb.store.generation").Set(float64(gen))
	s.set.tele.Gauge("hitlistdb.store.addrs").Set(float64(db.AddrCount()))
	s.prune(gen)
	return db, nil
}

// Refresh re-reads the manifest and swaps in the generation it names when
// that differs from the in-memory current one — the pickup path for a
// serve daemon watching a directory some other process publishes into.
// It returns the current DB and whether a swap happened.
func (s *Store) Refresh() (*DB, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest()
	if os.IsNotExist(err) {
		return s.cur.Load(), false, nil // empty store
	}
	if err != nil {
		return s.cur.Load(), false, err
	}
	if cur := s.cur.Load(); cur != nil && cur.Generation() == m.Generation {
		return cur, false, nil
	}
	db, err := Open(filepath.Join(s.dir, m.File))
	if err != nil {
		return s.cur.Load(), false, err
	}
	if db.Generation() != m.Generation {
		return s.cur.Load(), false, fmt.Errorf("hitlistdb: manifest names generation %d but %s holds %d",
			m.Generation, m.File, db.Generation())
	}
	s.cur.Store(db)
	s.set.tele.Counter("hitlistdb.store.refreshes").Inc()
	s.set.tele.Gauge("hitlistdb.store.generation").Set(float64(db.Generation()))
	s.set.tele.Gauge("hitlistdb.store.addrs").Set(float64(db.AddrCount()))
	return db, true, nil
}

func (s *Store) readManifest() (manifest, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(b)
}

// parseManifest decodes a manifest another process may have written,
// accepting only the current schema naming a plain file in the store
// directory.
func parseManifest(b []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return manifest{}, fmt.Errorf("hitlistdb: corrupt manifest: %w", err)
	}
	if m.Schema != manifestSchema {
		return manifest{}, fmt.Errorf("hitlistdb: manifest schema %q, want %q", m.Schema, manifestSchema)
	}
	if m.File == "" || m.File == "." || strings.Contains(m.File, "/") || strings.Contains(m.File, "..") {
		return manifest{}, fmt.Errorf("hitlistdb: manifest names suspicious file %q", m.File)
	}
	return m, nil
}

func (s *Store) writeManifest(m manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(s.dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("hitlistdb: write manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("hitlistdb: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("hitlistdb: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("hitlistdb: swap manifest: %w", err)
	}
	return syncDir(s.dir)
}

// prune removes generation files older than the keep window. The current
// generation is never pruned; errors are ignored (a leftover file is
// harmless).
func (s *Store) prune(current uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "gen-%d.hldb", &g); err == nil && g != current {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for i, g := range gens {
		if i >= s.set.keep-1 { // current plus keep-1 predecessors stay
			os.Remove(filepath.Join(s.dir, genFile(g)))
		}
	}
}
