package longitudinal

import (
	"context"
	"fmt"
	"slices"
	"time"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/world"
)

// Cohort is a named address set whose persistence the daemon reports per
// epoch — e.g. the hits of a TGA run, re-checked epoch after epoch.
// Cohort members join the scan universe.
type Cohort struct {
	Name  string
	Addrs []ipaddr.Addr
}

// Config assembles a Daemon.
type Config struct {
	// World is the synthetic Internet whose epoch clock the daemon
	// advances; Prober scans against it.
	World  *world.World
	Prober scanner.Prober
	// Corpus is the initial seed universe (typically the union of seed
	// sources, dealiased).
	Corpus []ipaddr.Addr
	// Cohorts are extra tracked address sets (see Cohort).
	Cohorts []Cohort
	// Proto is the probing protocol.
	Proto proto.Protocol
	// startEpoch is the first scan epoch (default world.ScanEpoch);
	// Epochs how many consecutive epochs to run (required).
	startEpoch int
	Epochs     int
	// Budget caps probes per epoch (0 = unlimited).
	Budget int
	// StaleAfter / StableEvery / Alpha tune the tracker and scheduler
	// (zero values get the package defaults).
	StaleAfter  int
	StableEvery int
	Alpha       float64
	// Fingerprint is the environment content address for cell keys; Store
	// checkpoints per-epoch cells so a killed daemon resumes
	// byte-identically. Nil Store still runs (no persistence).
	Fingerprint string
	Store       grid.Store
	// Publish, when set, receives one hitlistdb generation per epoch: the
	// believed-alive view, stamped with the epoch. On resume, epochs at
	// or below the published epoch are not re-published.
	Publish *hitlistdb.Store
	// AliasedPrefixes is the known aliased-prefix list, published with
	// every snapshot and used to classify alias hits per epoch.
	AliasedPrefixes []ipaddr.Prefix
	// Telemetry receives longitudinal.* metrics and epoch spans.
	Telemetry *telemetry.Tracer
}

// CohortStat is one cohort's believed state after an epoch.
type CohortStat struct {
	Name string
	// Alive members responded at their most recent probe; Seen members
	// have been probed at least once; Total is the cohort size.
	Alive, seen, Total int
}

// EpochReport is one epoch's outcome. Everything except Duration and
// Generation is a pure function of the seed and configuration, which is
// what the resume-equivalence guarantee is stated over.
type EpochReport struct {
	Epoch  int
	Probed int
	Hits   int
	// Scheduler class sizes and savings (see Selection).
	New, PendingStale, Volatile, StableRefresh int
	Eligible, Saved                            int
	// Flaps / NewlyStale / Resurrected are this epoch's observations;
	// ConfirmedStale is the cumulative confirmed-stale count after it.
	Flaps, newlyStale, resurrected int
	ConfirmedStale                 int
	// Alive is the believed-alive universe size after the epoch;
	// AliveSeeds restricts that to the original corpus (the seed decay
	// curve).
	Alive, AliveSeeds int
	// AliasPrefixes are the /96s (alias.AliasPrefixBits) of this epoch's
	// hits inside the known aliased-prefix list, sorted — consecutive
	// epochs' symmetric difference is the alias-set drift metric.
	AliasPrefixes []ipaddr.Prefix
	// Cohorts reports per-cohort persistence.
	Cohorts []CohortStat
	// Generation is the hitlistdb generation this epoch published (0 when
	// publishing is disabled); Duration the wall-clock epoch time.
	Generation uint64
	Duration   time.Duration
}

// Daemon is the longitudinal scanning service: per epoch it selects a
// budgeted target set, scans it as one checkpointed grid cell, folds the
// observations into the tracker, and publishes the believed-alive view.
type Daemon struct {
	cfg     Config
	tr      *telemetry.Tracer
	tracker *Tracker
	sched   *scheduler
	engine  *grid.Engine
	offline *alias.OfflineList

	universe []ipaddr.Addr // corpus ∪ cohorts, sorted unique
	// inCorpus marks the universe positions that hold a corpus address.
	inCorpus []bool

	// pending carries the current epoch's targets to the cell executor
	// (cells embed only the target digest; the daemon runs one cell at a
	// time, so a single slot suffices).
	pending []ipaddr.Addr
}

// New assembles a daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.World == nil || cfg.Prober == nil {
		return nil, fmt.Errorf("longitudinal: world and prober required")
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("longitudinal: Epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.startEpoch <= 0 {
		cfg.startEpoch = world.ScanEpoch
	}
	tr := cfg.Telemetry
	if tr == nil {
		tr = telemetry.NewTracer(nil)
	}
	universe := append([]ipaddr.Addr(nil), cfg.Corpus...)
	for _, c := range cfg.Cohorts {
		universe = append(universe, c.Addrs...)
	}
	slices.SortFunc(universe, ipaddr.Addr.Compare)
	universe = slices.Compact(universe)
	d := &Daemon{
		cfg:     cfg,
		tr:      tr,
		tracker: newTracker(universe, cfg.Alpha, cfg.StaleAfter),
		sched: newScheduler(schedulerConfig{
			Budget:      cfg.Budget,
			StableEvery: cfg.StableEvery,
		}),
		offline:  alias.NewOfflineList(cfg.AliasedPrefixes),
		universe: universe,
		inCorpus: corpusFlags(universe, cfg.Corpus),
	}
	d.engine = grid.NewEngine(grid.Config{
		Fingerprint: cfg.Fingerprint,
		Store:       cfg.Store,
		Workers:     1, // epochs are inherently sequential
		Telemetry:   tr,
		Exec:        d.exec,
	})
	return d, nil
}

// corpusFlags marks the positions of corpus's addresses in universe, a
// sorted, unique superset of corpus.
func corpusFlags(universe, corpus []ipaddr.Addr) []bool {
	flags := make([]bool, len(universe))
	for _, a := range corpus {
		if i, ok := slices.BinarySearchFunc(universe, a, ipaddr.Addr.Compare); ok {
			flags[i] = true
		}
	}
	return flags
}

// Universe returns the daemon's full target universe: corpus ∪ cohorts,
// sorted and unique. The tracker keeps its state by position in it.
func (d *Daemon) Universe() []ipaddr.Addr { return d.universe }

// Tracker exposes the longitudinal state (read-only use).
func (d *Daemon) Tracker() *Tracker { return d.tracker }

// LiveSeeds returns the corpus minus confirmed-stale addresses, sorted —
// the treatment-construction feedback loop: a TGA seeded from this list
// does not waste model mass on seeds the daemon has confirmed dead.
func (d *Daemon) LiveSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	for i, seed := range d.inCorpus {
		if seed && !d.tracker.states[i].Stale {
			out = append(out, d.universe[i])
		}
	}
	return out
}

// cellBatchSize is the batch size recorded on each epoch's grid cell.
const cellBatchSize = 1024

// epochCell is the content address of one epoch's scan: the epoch and
// the digest of the exact target set, so a resumed daemon only reuses a
// checkpoint when its replayed scheduling chose the same targets.
func (d *Daemon) epochCell(epoch int, targets []ipaddr.Addr) grid.Cell {
	return grid.Cell{
		Gen:       "daemon",
		Treatment: grid.Treatment(fmt.Sprintf("epoch:%d|targets:%016x", epoch, ipaddr.Digest(targets))),
		Proto:     d.cfg.Proto,
		Budget:    len(targets),
		BatchSize: cellBatchSize,
	}
}

// exec scans the pending target set at the pending epoch. The world's
// epoch was already advanced by Run. The prober returns each hit once, in
// its plan order — a pure function of the targets and the scan secret — so
// the checkpointed result is reproducible; every consumer reads the hits
// as a set.
func (d *Daemon) exec(ctx context.Context, c grid.Cell) (grid.CellResult, error) {
	hits, err := scanner.AsContextProber(d.cfg.Prober).ScanActiveContext(ctx, d.pending, d.cfg.Proto)
	if err != nil {
		return grid.CellResult{}, err
	}
	return grid.CellResult{Hits: hits}, nil
}

// Run executes the configured epoch range. It restores the world's epoch
// on return so surrounding code (the experiment harness) is undisturbed.
// Reports cover every epoch run in this call; on context cancellation the
// completed epochs' reports are returned alongside the error.
func (d *Daemon) Run(ctx context.Context) ([]EpochReport, error) {
	prevEpoch := d.cfg.World.Epoch()
	defer d.cfg.World.SetEpoch(prevEpoch)
	reg := d.tr.Registry()

	var reports []EpochReport
	for e := d.cfg.startEpoch; e < d.cfg.startEpoch+d.cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		rep, err := d.runEpoch(ctx, e)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		reg.Counter("longitudinal.epochs").Inc()
		reg.Histogram("longitudinal.epoch.seconds").Observe(rep.Duration.Seconds())
		reg.Counter("longitudinal.probes.sent").Add(int64(rep.Probed))
		reg.Counter("longitudinal.probes.saved").Add(int64(rep.Saved))
		reg.Gauge("longitudinal.stale.confirmed").Set(float64(rep.ConfirmedStale))
		reg.Gauge("longitudinal.alive").Set(float64(rep.Alive))
		reg.Gauge("longitudinal.epoch").Set(float64(e))
	}
	return reports, nil
}

// runEpoch runs one epoch: select, scan (checkpointed), observe, publish.
func (d *Daemon) runEpoch(ctx context.Context, epoch int) (EpochReport, error) {
	start := time.Now()
	span := d.tr.StartSpan("longitudinal.epoch", telemetry.Attrs{"epoch": epoch})

	sel := d.sched.Select(epoch, d.tracker)
	d.cfg.World.SetEpoch(epoch)

	var hits []ipaddr.Addr
	if len(sel.Targets) > 0 {
		cell := d.epochCell(epoch, sel.Targets)
		d.pending = sel.Targets
		res, err := d.engine.Run(ctx, grid.Spec{Name: fmt.Sprintf("longitudinal-epoch-%d", epoch), Cells: []grid.Cell{cell}})
		d.pending = nil
		if err != nil {
			span.EndWith(telemetry.Attrs{"error": err.Error()})
			return EpochReport{}, err
		}
		hits = res.Of(cell).Hits
	}
	obs := d.tracker.observe(epoch, sel.Targets, hits)

	rep := EpochReport{
		Epoch:          epoch,
		Probed:         len(sel.Targets),
		Hits:           len(hits),
		New:            sel.New,
		PendingStale:   sel.PendingStale,
		Volatile:       sel.Volatile,
		StableRefresh:  sel.StableRefresh,
		Eligible:       sel.Eligible,
		Saved:          sel.Saved,
		Flaps:          obs.Flaps,
		newlyStale:     obs.NewlyStale,
		resurrected:    obs.Resurrected,
		ConfirmedStale: d.tracker.staleCount(),
	}

	alive := d.tracker.aliveSet()
	rep.Alive = alive.Len()
	for i, seed := range d.inCorpus {
		if seed && believedAlive(&d.tracker.states[i]) {
			rep.AliveSeeds++
		}
	}

	// Alias hits: this epoch's responsive addresses inside the known
	// aliased-prefix list, folded to /96s. Read in universe order, the
	// /96s come out sorted, so dropping adjacent repeats dedups them.
	for i, hit := range d.tracker.hit {
		if !hit || !d.offline.Contains(d.universe[i]) {
			continue
		}
		p := ipaddr.PrefixFrom(d.universe[i], alias.AliasPrefixBits)
		if n := len(rep.AliasPrefixes); n == 0 || rep.AliasPrefixes[n-1] != p {
			rep.AliasPrefixes = append(rep.AliasPrefixes, p)
		}
	}

	for _, c := range d.cfg.Cohorts {
		cs := CohortStat{Name: c.Name, Total: len(c.Addrs)}
		for _, a := range c.Addrs {
			if st := d.tracker.state(a); st != nil {
				cs.seen++
				if st.Up && !st.Stale {
					cs.Alive++
				}
			}
		}
		rep.Cohorts = append(rep.Cohorts, cs)
	}

	if d.cfg.Publish != nil {
		gen, err := d.publish(epoch, alive)
		if err != nil {
			span.EndWith(telemetry.Attrs{"error": err.Error()})
			return EpochReport{}, err
		}
		rep.Generation = gen
	}

	rep.Duration = time.Since(start)
	span.EndWith(telemetry.Attrs{
		"probed": rep.Probed, "hits": rep.Hits, "saved": rep.Saved,
		"stale": rep.ConfirmedStale, "generation": rep.Generation,
	})
	return rep, nil
}

// publish writes the epoch's believed-alive view as the next hitlistdb
// generation. A resumed daemon replaying already-published epochs skips
// them: the store's current epoch is authoritative, so a kill+restart
// produces no spurious generations.
func (d *Daemon) publish(epoch int, alive *ipaddr.Set) (uint64, error) {
	if cur := d.cfg.Publish.Current(); cur != nil && cur.Epoch() >= epoch {
		d.tr.Registry().Counter("longitudinal.publish.skipped").Inc()
		return cur.Generation(), nil
	}
	snap := &hitlist.Snapshot{
		BuiltAt:         time.Now(),
		Epoch:           epoch,
		Input:           len(d.universe),
		Responsive:      alive,
		AliasedPrefixes: append([]ipaddr.Prefix(nil), d.cfg.AliasedPrefixes...),
	}
	hitlist.SortPrefixes(snap.AliasedPrefixes)
	for _, p := range proto.All {
		snap.PerProtocol[p] = ipaddr.NewSet()
	}
	snap.PerProtocol[d.cfg.Proto] = alive
	db, err := d.cfg.Publish.Publish(snap)
	if err != nil {
		return 0, fmt.Errorf("longitudinal: publish epoch %d: %w", epoch, err)
	}
	d.tr.Registry().Counter("longitudinal.publishes").Inc()
	return db.Generation(), nil
}
