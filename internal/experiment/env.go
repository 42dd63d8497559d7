// Package experiment orchestrates the paper's research questions end to
// end: it builds the world, collects and preprocesses seed datasets
// (Table 2's treatments), drives the TGAs (the paper's eight, or the
// extended ten) through the scanner with two-tier output dealiasing, and
// renders every table and figure of the evaluation section. Sections is
// the one table of experiments: each entry names its `-run` key, the
// Sweeps (treatment rows × protocols × generators at one budget) it needs,
// and the fold that renders their results. A Sweep enumerates its cells
// once, as a grid.Spec for the Env's shared engine — which deduplicates
// cells across sweeps and checkpoints them for resume (see
// internal/experiment/grid) — and its results are read back by the same
// positions.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"seedscan/internal/alias"
	"seedscan/internal/cluster"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// experimentBatchSize is the generate→scan→feedback granularity of every
// grid cell. Small batches give online generators enough feedback rounds
// to adapt at scaled-down budgets (the paper's 50M-budget runs see
// thousands of rounds).
const experimentBatchSize = 1024

const (
	// lossRate is the simulated Internet's random packet loss.
	lossRate = 0.01
	// offlineCoverage is the fraction of ground-truth aliased prefixes on
	// the published offline list (the list is incomplete, as the paper
	// stresses).
	offlineCoverage = 0.6
)

// EnvConfig sizes an experimental environment. Zero values get defaults.
type EnvConfig struct {
	// WorldSeed / NumASes configure the simulated Internet.
	WorldSeed uint64
	NumASes   int
	// CollectSeed / CollectScale configure seed collection.
	CollectSeed  uint64
	CollectScale float64
	// Budget is the per-TGA generation budget (the paper's 50M, scaled;
	// default 20000).
	Budget int
	// ScanSecret keys probe cookies.
	ScanSecret uint64
	// ClusterWorkers > 1 fans all scanning out across that many in-process
	// cluster workers; the merged results are byte-identical to the single
	// scanner's, so experiment outcomes do not change — only the scanning
	// topology does. 0 or 1 keeps the plain single scanner.
	ClusterWorkers int
	// Wire is the chain composed onto the world link before any scanner
	// (or cluster worker) is built over it. Its faults change outcomes and
	// so enter Fingerprint.
	Wire wire.ChainConfig
	// workers overrides how many grid cells run at once (default:
	// GOMAXPROCS, capped at 8). Deterministic outcomes do not depend on it.
	workers int
	// GridStore checkpoints completed grid cells, letting an interrupted
	// run resume with byte-identical results. Nil keeps checkpoints
	// in-process only (cells are still deduplicated across specs).
	GridStore grid.Store
	// Telemetry receives the environment's spans, progress events, and
	// metrics. Nil gets a silent tracer, so instrumentation is always
	// wired and always cheap.
	Telemetry *telemetry.Tracer
}

func (c *EnvConfig) fillDefaults() {
	if c.WorldSeed == 0 {
		c.WorldSeed = 42
	}
	if c.NumASes == 0 {
		c.NumASes = 300
	}
	if c.CollectSeed == 0 {
		c.CollectSeed = 7
	}
	if c.CollectScale == 0 {
		c.CollectScale = 1
	}
	if c.Budget == 0 {
		c.Budget = 20000
	}
	if c.ScanSecret == 0 {
		c.ScanSecret = 0x5eed5ca9
	}
}

// ScanProber is the scanning surface experiments probe through — either
// the Env's reference scanner or an in-process cluster pool whose merged
// output is byte-identical to it. It is the union of the two shared
// prober surfaces (see scanner.Prober); *scanner.Scanner and
// *cluster.Pool both implement it.
type ScanProber interface {
	scanner.Prober
	scanner.ContextProber
}

// Env is a fully assembled experimental setup.
type Env struct {
	Cfg     EnvConfig
	World   *world.World
	Scanner *scanner.Scanner
	// Prober is what every experiment scans through: Scanner itself, or a
	// cluster pool over the same link when Cfg.ClusterWorkers > 1.
	Prober  ScanProber
	Sources map[seeds.Source]*seeds.Dataset
	Full    *seeds.Dataset
	Offline *alias.OfflineList
	// tele is the environment's tracer (never nil; a silent tracer when
	// EnvConfig.Telemetry was not set).
	tele *telemetry.Tracer

	// Lazily computed treatment caches: grid cells resolve treatments
	// concurrently and cold, and the first resolver builds while the rest
	// wait (no caller-side pre-warming). Their builds never fail, so their
	// callers wait without a deadline; cross-key builds (PortActiveSeeds on
	// dealiasedSeeds) are fine, as memo.Map holds no lock while building.
	// Every dataset they hold is shared and read-only.
	dealiased    memo.Map[alias.Mode, *seeds.Dataset]
	activeByP    memo.Map[proto.Protocol, *seeds.Dataset]
	allActive    memo.Map[struct{}, *seeds.Dataset]
	sourceActive memo.Map[seeds.Source, *seeds.Dataset]
	outDealiase  memo.Map[proto.Protocol, *alias.Dealiaser]
	// models caches mined TGA seed models across runs: grid cells that fix
	// the seed treatment and vary only the protocol (the paper's own
	// methodology) reuse the model instead of re-mining it per cell.
	models *modelcache.Cache
	// runs memoises cell execution by seed content: cells whose treatments
	// resolve to the same addresses (dealiased:none is always full) share
	// one TGA run and its CellResult.
	runs memo.Map[runKey, seedRun]
	// sharedRuns counts the cells whose result came from another cell's run.
	sharedRuns *telemetry.Counter

	// gridEngine schedules every spec's cells (lazily built: the
	// fingerprint digests the collected corpus).
	gridOnce   sync.Once
	gridEngine *grid.Engine
}

// NewEnv builds the world, collects all seed sources at the collection
// epoch, derives the (incomplete) offline alias list, and switches the
// world to the scan epoch.
func NewEnv(cfg EnvConfig) *Env {
	cfg.fillDefaults()
	tr := cfg.Telemetry
	if tr == nil {
		tr = telemetry.NewTracer(nil)
	}
	w := world.New(world.Config{Seed: cfg.WorldSeed, NumASes: cfg.NumASes, LossRate: lossRate, Telemetry: tr.Registry()})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: cfg.CollectSeed, Scale: cfg.CollectScale})
	full := seeds.CombineAll(srcs)

	// The published alias list covers only part of the truth; which part
	// is a deterministic function of the world seed.
	truth := w.AliasedPrefixes()
	sort.Slice(truth, func(i, j int) bool { return truth[i].Addr().Less(truth[j].Addr()) })
	rng := rand.New(rand.NewSource(int64(cfg.WorldSeed) + 0xa11a5))
	rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })
	keep := int(float64(len(truth)) * offlineCoverage)
	listed := append([]ipaddr.Prefix(nil), truth[:keep]...)

	w.SetEpoch(world.ScanEpoch)
	link := cfg.Wire.Build(w.Link(), tr.Registry())
	e := &Env{
		Cfg:   cfg,
		World: w,
		Scanner: scanner.New(link,
			scanner.WithSecret(cfg.ScanSecret),
			scanner.WithTelemetry(tr.Registry())),
		tele:    tr,
		Sources: srcs,
		Full:    full,
		Offline: alias.NewOfflineList(listed),
		models:  modelcache.New(),

		sharedRuns: tr.Registry().Counter("experiment.cells.shared_seeds"),
	}
	e.Prober = e.Scanner
	if cfg.ClusterWorkers > 1 {
		// The pool's worker scanners replicate the reference scanner's
		// secret over the same (already chained) link, so everything scanned
		// through Prober merges byte-identically to a Scanner-only
		// environment.
		e.Prober = cluster.NewLocalPool(cfg.ClusterWorkers, link, cluster.Config{
			Secret:    cfg.ScanSecret,
			Telemetry: tr.Registry(),
		}, scanner.WithTelemetry(tr.Registry()))
	}
	return e
}

// Fingerprint is the environment's content address: every EnvConfig knob
// that determines experiment outcomes, plus an order-sensitive digest of
// the collected seed corpus. Grid cell keys are derived from it, so a
// checkpoint store only ever satisfies runs with an identical
// environment. ClusterWorkers and Workers are deliberately absent: the
// scanning topology and fan-out width change wall-clock, not results, so
// a store written by a cluster-backed run resumes a single-scanner run
// and vice versa. A chain's faults are appended, and only they: a chain
// without faults leaves the fingerprint as it was before chains had one.
func (e *Env) Fingerprint() string {
	c := e.Cfg
	fp := fmt.Sprintf("w%d-a%d-l%g-c%d-s%g-o%g-k%x-d%016x",
		c.WorldSeed, c.NumASes, lossRate, c.CollectSeed, c.CollectScale,
		offlineCoverage, c.ScanSecret, e.Full.Digest())
	if w := c.Wire.Fingerprint(); w != "" {
		fp += "|" + w
	}
	return fp
}

// Grid returns the environment's cell engine, shared by every sweep so
// identical cells across concurrently running harnesses execute once. Each
// cell is deterministic in isolation and what cells share (scanner
// counters, dealiaser verdicts, treatment caches) is concurrency-safe, so
// the fan-out width changes wall-clock only.
func (e *Env) Grid() *grid.Engine {
	e.gridOnce.Do(func() {
		e.gridEngine = grid.NewEngine(grid.Config{
			Fingerprint: e.Fingerprint(),
			Store:       e.Cfg.GridStore,
			Workers:     e.Cfg.workers,
			Telemetry:   e.tele,
			Exec:        e.runCell,
		})
	})
	return e.gridEngine
}

// OutputDealiaser returns the shared joint (offline+online) dealiaser used
// to classify TGA output on protocol p, per §4.2. Safe for concurrent
// cold calls.
func (e *Env) OutputDealiaser(p proto.Protocol) *alias.Dealiaser {
	d, _, _ := e.outDealiase.Do(context.Background(), p, func() (*alias.Dealiaser, error) {
		return alias.New(alias.ModeJoint, e.Offline, e.Prober, p, e.Cfg.ScanSecret^uint64(p), e.tele.Registry()), nil
	})
	return d
}

// dealiasedSeeds returns the full dataset under one of Table 2's
// dealiasing treatments. Results are cached; concurrent cold calls for
// the same mode dealias once.
func (e *Env) dealiasedSeeds(mode alias.Mode) *seeds.Dataset {
	ds, _, _ := e.dealiased.Do(context.Background(), mode, func() (*seeds.Dataset, error) {
		d := alias.New(mode, e.Offline, e.Prober, proto.ICMP, e.Cfg.ScanSecret^0xa11a5, e.tele.Registry())
		clean, _ := d.Split(e.Full.Slice()) // in place, over a copy
		return seeds.FromAddrs("Full/"+mode.String(), clean), nil
	})
	return ds
}

// AllActiveSeeds returns RQ1.b's "All Active" dataset: joint-dealiased
// seeds responsive on at least one studied protocol at scan time.
func (e *Env) AllActiveSeeds() *seeds.Dataset {
	ds, _, _ := e.allActive.Do(context.Background(), struct{}{}, func() (*seeds.Dataset, error) {
		u := ipaddr.NewSet()
		for _, p := range proto.All {
			u.AddSet(e.PortActiveSeeds(p).Addrs)
		}
		return seeds.FromSet("All Active", u), nil
	})
	return ds
}

// PortActiveSeeds returns RQ2's port-specific dataset: the joint-dealiased
// seeds responsive on exactly the probed protocol. It is scanned once and
// cached; concurrent cold calls scan once, and the dataset is shared.
func (e *Env) PortActiveSeeds(p proto.Protocol) *seeds.Dataset {
	ds, _, _ := e.activeByP.Do(context.Background(), p, func() (*seeds.Dataset, error) {
		base := e.dealiasedSeeds(alias.ModeJoint)
		return seeds.FromAddrs("Active/"+p.String(), e.Prober.ScanActive(base.Slice(), p)), nil
	})
	return ds
}

// sourceActiveSeeds returns RQ3's per-source dataset: the source's
// addresses that are in the All Active set. Results are cached.
func (e *Env) sourceActiveSeeds(src seeds.Source) *seeds.Dataset {
	ds, _, _ := e.sourceActive.Do(context.Background(), src, func() (*seeds.Dataset, error) {
		return e.Sources[src].Restrict(src.String()+"/active", e.AllActiveSeeds().Addrs), nil
	})
	return ds
}

// tgaResult couples a run's raw output with its measured outcome.
type tgaResult struct {
	Run     *tga.RunResult
	Outcome metrics.Outcome
}

// runTGA is the common TGA runner behind runTGACtx and grid cell
// execution; batchSize <= 0 selects the experiment default.
func (e *Env) runTGA(ctx context.Context, name string, seedSet []ipaddr.Addr, p proto.Protocol, budget, batchSize int) (tgaResult, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	if batchSize <= 0 {
		batchSize = experimentBatchSize
	}
	ctx = telemetry.EnsureContext(ctx, e.tele)
	g, err := all.New(name)
	if err != nil {
		return tgaResult{}, err
	}
	run, err := tga.RunContext(ctx, g, seedSet, tga.RunConfig{
		Budget:       budget,
		BatchSize:    batchSize,
		Proto:        p,
		Prober:       e.Prober,
		Dealiaser:    e.OutputDealiaser(p),
		ExcludeSeeds: true,
		Models:       e.models,
	})
	if err != nil {
		return tgaResult{}, err
	}
	out := metrics.Measure(run.Hits, run.AliasedHits, e.World.ASDB(), excludedASN(p))
	return tgaResult{Run: run, Outcome: out}, nil
}

// excludedASN is the AS whose hits §4.1 leaves out of p's evaluation: the
// pathological AS12322 analogue on ICMP, none (0) elsewhere.
func excludedASN(p proto.Protocol) int {
	if p == proto.ICMP {
		return world.PathologicalASN
	}
	return 0
}

// runKey is a cell's computation: the cell's parameters with the
// treatment replaced by the content of the seeds it resolves to.
type runKey struct {
	gen           string
	n             int
	digest        uint64
	proto         proto.Protocol
	budget, batch int
}

// seedRun is one memoised TGA run and the seeds it ran on, against which
// a later cell confirms that its digest match is an equal seed list.
type seedRun struct {
	seeds []ipaddr.Addr
	res   grid.CellResult
}

// runCell executes one grid cell: resolve the treatment to its seed list,
// run the generator, and measure. An empty treatment (a seed source with
// no responsive addresses) yields the zero result without running — the
// same skip the bespoke per-RQ drivers applied. Cells whose treatments
// resolve to equal seed lists run once and share the result
// (experiment.cells.shared_seeds counts the sharers). runCell is the
// Env's grid executor; callers normally go through Grid().Run, which adds
// dedup by cell identity, checkpointing, and resume.
func (e *Env) runCell(ctx context.Context, c grid.Cell) (grid.CellResult, error) {
	ds, err := e.treatment(c.Treatment)
	if err != nil {
		return grid.CellResult{}, err
	}
	seedSet := ds.SortedSlice()
	if len(seedSet) == 0 {
		return grid.CellResult{}, nil
	}
	run := func() (grid.CellResult, error) {
		r, err := e.runTGA(ctx, c.Gen, seedSet, c.Proto, c.Budget, c.BatchSize)
		if err != nil {
			return grid.CellResult{}, err
		}
		return grid.CellResult{Outcome: r.Outcome, Hits: r.Run.Hits}, nil
	}
	k := runKey{c.Gen, len(seedSet), ds.Digest(), c.Proto, c.Budget, c.BatchSize}
	sr, shared, err := e.runs.Do(ctx, k, func() (seedRun, error) {
		res, err := run()
		return seedRun{seeds: seedSet, res: res}, err
	})
	if err != nil || !shared {
		return sr.res, err
	}
	if !slices.Equal(sr.seeds, seedSet) {
		// Two seed lists with one digest: run this one on its own.
		return run()
	}
	e.sharedRuns.Inc()
	return sr.res, nil
}
