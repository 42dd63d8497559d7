package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/longitudinal"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/serve"
)

// daemonWorkload is daemon_serve: writes beside reads.
//
// A longitudinal.Daemon re-scans a prioritized part of the seed corpus
// every epoch and publishes each epoch's believed-alive view as a new
// hitlistdb generation. Beside it — same process, same cores — a second
// store handle on the same directory is refreshed every 50 ms under a
// serve.Server (the loop `seedscan serve -watch` runs), and one
// connection asks it 200 lookups a second on a fixed schedule (open
// loop), checking each answer against the generation it names.
//
// A pass is one epoch; work is targets probed. The run ends at the first
// epoch boundary past the deadline, or at MaxEpochs, so two commits of
// different speed still compare over the same epochs. alloc_mb and the
// traced run's proc.cpu_s are the whole process's, reader included,
// divided evenly over epochs.
type daemonWorkload struct {
	cfg runConfig

	fx     *fixture
	dir    string
	pub    *hitlistdb.Store
	reader *hitlistdb.Store
	end    *httpEnd
	mix    []query
}

func (d *daemonWorkload) Close() {
	d.end.close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	*d = daemonWorkload{cfg: d.cfg}
}

func (d *daemonWorkload) Setup() error {
	d.fx = buildFixture(d.cfg.Size, d.cfg.Seed)
	var err error
	if d.dir, err = os.MkdirTemp(d.cfg.OutDir, "daemon-store-"); err != nil {
		return err
	}
	if d.pub, err = hitlistdb.OpenStore(d.dir, hitlistdb.KeepGenerations(4)); err != nil {
		return err
	}
	// A serve tier always has a current generation: start from the
	// collected corpus as published, as yesterday's hitlist would be.
	first := &hitlist.Snapshot{
		BuiltAt:    time.Now(),
		Input:      len(d.fx.corpus),
		Responsive: d.fx.full.Addrs,
	}
	for _, p := range proto.All {
		first.PerProtocol[p] = ipaddr.NewSet()
	}
	first.PerProtocol[proto.ICMP] = d.fx.full.Addrs
	if _, err = d.pub.Publish(first); err != nil {
		return err
	}
	if d.reader, err = hitlistdb.OpenStore(d.dir); err != nil {
		return err
	}
	if _, _, err = d.reader.Refresh(); err != nil {
		return err
	}
	srv, err := serve.New(d.reader)
	if err != nil {
		return err
	}
	if d.end, err = listen(srv); err != nil {
		return err
	}
	d.mix = queryMix(d.fx.corpus, 4096, d.cfg.Seed)
	for i := range d.mix {
		d.mix[i].url = d.end.base + "/v1/lookup?addr=" + d.mix[i].addr.String()
	}
	return nil
}

// generations remembers the snapshots the reader has loaded, so an
// answer can be checked against the generation it names. Only the last
// few are kept: an answer can name the current one or the one it raced.
type generations struct {
	mu      sync.Mutex
	byGen   map[uint64]*hitlistdb.DB
	seenAt  map[uint64]time.Time // first answer naming the generation
	builtAt map[uint64]time.Time
	kept    []*hitlistdb.DB // the last four, which a traced run re-publishes
}

func (g *generations) add(db *hitlistdb.DB) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.byGen[db.Generation()] = db
	g.builtAt[db.Generation()] = db.BuiltAt()
	delete(g.byGen, db.Generation()-4)
	g.kept = append(g.kept, db)
	if len(g.kept) > 4 {
		g.kept = g.kept[1:]
	}
}

func (g *generations) get(gen uint64, now time.Time) *hitlistdb.DB {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.seenAt[gen]; !ok {
		g.seenAt[gen] = now
	}
	return g.byGen[gen]
}

// daemonRun is everything one run of the workload observed.
type daemonRun struct {
	reports    []longitudinal.EpochReport
	scanNs     []int64 // the prober's time, one entry per epoch's scan
	refreshMs  []float64
	probe      pacedResult
	swapMs     []float64
	failed     int64
	notes      []string
	cpuNs      int64
	allocBytes uint64
	kept       []*hitlistdb.DB
}

// errDeadline is how the benchmark ends the daemon between two epochs.
var errDeadline = errors.New("benchmark: run ended at an epoch boundary")

// run drives the daemon for up to maxEpochs epochs, stopping at the first
// epoch boundary past deadline once two epochs are done.
func (d *daemonWorkload) run(tr *Tracer, maxEpochs int, deadline time.Time) (*daemonRun, error) {
	out := &daemonRun{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The daemon scans once per epoch, first thing after choosing targets,
	// so refusing a scan ends the run exactly between two epochs: nothing
	// of a counted epoch is lost, only the next one's target selection.
	sc := scanner.New(d.fx.w.Link(), scanner.WithSecret(d.cfg.Seed))
	prober := &meteredProber{inner: sc, tr: tr}
	prober.gate = func() error {
		done := len(out.scanNs)
		if done >= maxEpochs || (done >= 2 && time.Now().After(deadline)) {
			return errDeadline
		}
		return nil
	}
	prober.onScan = func(dur time.Duration) { out.scanNs = append(out.scanNs, int64(dur)) }
	daemon, err := longitudinal.New(longitudinal.Config{
		World:           d.fx.w,
		Prober:          prober,
		Corpus:          d.fx.corpus,
		Proto:           proto.ICMP,
		Epochs:          maxEpochs + 1, // so that the cap, too, is reached at the gate
		StaleAfter:      2,
		StableEvery:     3,
		Publish:         d.pub,
		AliasedPrefixes: d.fx.w.AliasedPrefixes(),
	})
	if err != nil {
		return nil, err
	}

	gens := &generations{
		byGen: make(map[uint64]*hitlistdb.DB), seenAt: make(map[uint64]time.Time),
		builtAt: make(map[uint64]time.Time),
	}
	gens.add(d.reader.Current())
	root := tr.Push("daemon_serve.run")

	var wg sync.WaitGroup
	wg.Add(2)
	var refreshErr error
	go func() { // the serve -watch loop
		defer wg.Done()
		tick := time.NewTicker(d.cfg.Size.RefreshPeriod)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			sp, start := tr.Start(root, "hitlistdb.refresh"), time.Now()
			db, changed, err := d.reader.Refresh()
			sp.End()
			if err != nil {
				refreshErr = err
				return
			}
			if changed {
				out.refreshMs = append(out.refreshMs, msSince(start))
				gens.add(db)
			}
		}
	}()
	go func() { // the probe connection
		defer wg.Done()
		conn := newConn()
		defer conn.CloseIdleConnections()
		var buf bytes.Buffer
		var lastGen uint64
		out.probe = paced(ctx, d.cfg.Size.ProbeRate, func(i int) error {
			sp := tr.Start(root, "serve.lookup")
			defer sp.End()
			q := &d.mix[i%len(d.mix)]
			body, err := fetch(conn, http.MethodGet, q.url, nil, &buf)
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			var a answer
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			if a.Generation < lastGen {
				return fmt.Errorf("generation went back from %d to %d", lastGen, a.Generation)
			}
			lastGen = a.Generation
			db := gens.get(a.Generation, time.Now())
			if cur := d.reader.Current(); db == nil && cur.Generation() == a.Generation {
				db = cur // loaded, and about to be remembered by the watch loop
			}
			if db == nil {
				return fmt.Errorf("answer names generation %d, which the reader never loaded", a.Generation)
			}
			q.expect(db)
			return q.check(a)
		})
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuNow()
	reports, runErr := daemon.Run(ctx)
	out.cpuNs = cpuNow() - cpu0
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	cancel()
	wg.Wait()
	root.Pop()

	if !errors.Is(runErr, errDeadline) {
		return nil, fmt.Errorf("daemon stopped before the benchmark ended it: %v", runErr)
	}
	if refreshErr != nil {
		return nil, fmt.Errorf("refresh: %w", refreshErr)
	}
	out.reports = reports

	var lastGen uint64
	for _, r := range reports {
		if r.Generation <= lastGen {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("epoch %d published generation %d after %d", r.Epoch, r.Generation, lastGen))
		}
		lastGen = r.Generation
	}
	out.failed += out.probe.Failed
	if out.probe.FirstErr != nil {
		out.notes = append(out.notes, out.probe.FirstErr.Error())
	}
	gens.mu.Lock()
	for gen, seen := range gens.seenAt {
		if built, ok := gens.builtAt[gen]; ok && gen > 1 {
			out.swapMs = append(out.swapMs, float64(seen.Sub(built))/1e6)
		}
	}
	out.kept = gens.kept
	gens.mu.Unlock()
	return out, nil
}

// measurementOf turns a run into per-epoch passes.
func (d *daemonWorkload) measurementOf(run *daemonRun) (*measurement, error) {
	n := len(run.reports)
	if n == 0 {
		return nil, fmt.Errorf("no epoch completed")
	}
	m := &measurement{
		Digests:   make(map[string]string),
		Attempted: int64(n + len(run.probe.LatNs)),
		Failed:    run.failed,
		Notes:     run.notes,
	}
	for i, r := range run.reports {
		m.Passes = append(m.Passes, passSample{
			WallNs:     int64(r.Duration),
			Work:       int64(r.Probed),
			AllocBytes: run.allocBytes / uint64(n),
			CPUNs:      run.cpuNs / int64(n),
		})
		if i < d.cfg.Size.DigestEpochs {
			m.Digests[fmt.Sprintf("epoch.%02d", r.Epoch)] = fmt.Sprintf("p%d/h%d/a%d", r.Probed, r.Hits, r.Alive)
		}
	}
	return m, nil
}

func (d *daemonWorkload) Measure(deadline time.Time) (*measurement, error) {
	run, err := d.run(nil, d.cfg.Size.MaxEpochs, deadline)
	if err != nil {
		return nil, err
	}
	return d.measurementOf(run)
}

func (d *daemonWorkload) Trace(tr *Tracer) (map[string]float64, *measurement, error) {
	// Half the epochs show every layer — the full first scan and several
	// rotations of the stable set — and give the probe connection the
	// thousand samples its p99 needs.
	epochs := d.cfg.Size.MaxEpochs/2 + 1
	run, err := d.run(tr, epochs, time.Now().Add(time.Hour))
	if err != nil {
		return nil, nil, err
	}
	m, err := d.measurementOf(run)
	if err != nil {
		return nil, nil, err
	}
	v := d.fx.layerValues()

	snaps := make([]*hitlist.Snapshot, len(run.kept))
	for i, db := range run.kept {
		snaps[i] = db.Snapshot()
		v["hitlistdb.snapshot_bytes"] = float64(len(db.Bytes()))
	}
	if err := storeLayers(tr, d.cfg.OutDir, snaps, v); err != nil {
		return nil, nil, err
	}
	// The live watch loop's own pick-up times replace the quiet ones.
	if len(run.refreshMs) > 0 {
		v["hitlistdb.refresh_ms"] = median(run.refreshMs)
	}

	var epochMs, selfs []float64
	var probed, saved, eligible, scanTotal int64
	for i, r := range run.reports {
		ms := float64(r.Duration) / 1e6
		epochMs = append(epochMs, ms)
		if i < len(run.scanNs) {
			selfs = append(selfs, ms-float64(run.scanNs[i])/1e6-v["hitlistdb.publish_ms"])
			scanTotal += run.scanNs[i]
		}
		probed += int64(r.Probed)
		saved += int64(r.Saved)
		eligible += int64(r.Eligible)
	}
	v["longitudinal.epoch_p50_ms"] = median(epochMs)
	v["longitudinal.epoch_self_ms"] = median(selfs)
	v["longitudinal.probed"] = float64(probed)
	if eligible > 0 {
		v["longitudinal.probes_saved_pct"] = 100 * float64(saved) / float64(eligible)
	}
	v["scanner.scan_ms"] = float64(scanTotal) / 1e6

	lat := sorted(toFloats(run.probe.LatNs, 1e3))
	late := sorted(toFloats(run.probe.LateNs, 1e3))
	v["serve.open_p50_us"] = quantile(lat, 0.5)
	v["serve.open_p99_us"] = percentileIfResolved(lat, 0.99)
	v["serve.open_gen_late_p99_us"] = percentileIfResolved(late, 0.99)
	v["serve.swap_visible_p50_ms"] = median(run.swapMs)
	return v, m, nil
}
