package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// reproGens is the generator sweep of the committed reproduction.
var reproGens = all.ExtendedNames

var icmpOnly = []proto.Protocol{proto.ICMP}

// goldenSeed is the seed whose full-size run is the committed
// reproduction, and goldenFile the committed output of that run
// (cmd/experiments -seed 42 -ases 150 -scale 0.4 -budget 12000, all
// protocols, extended generators), read from the repository root.
const (
	goldenSeed = 42
	goldenFile = "experiments_output.txt"
)

// reproWorkload is repro_icmp: the path a user reproducing the paper
// runs. One pass takes a fresh experiment.Env at the committed
// reproduction's configuration (150 ASes, collection scale 0.4, budget
// 12,000) and runs RQ1.a, Table 4, RQ1.b, RQ2 and RQ4 with their
// renderers, in cmd/experiments order, over the ten generators on ICMP
// through the shared grid engine. Work is probe packets sent. Model
// mining, generation and dealiasing dominate; the packet path is a few
// percent. A pass takes longer than a run measures for, so a run is one
// pass; the loop takes more when a faster program lets them fit.
type reproWorkload struct {
	cfg runConfig
	env *experiment.Env
	// golden is the committed output the rendered ICMP tables must appear
	// in verbatim; empty except on a full-size run of goldenSeed.
	golden string
}

func newReproWorkload(cfg runConfig) (*reproWorkload, error) {
	r := &reproWorkload{cfg: cfg}
	if cfg.Size.Name == fullSize.Name && cfg.Seed == goldenSeed {
		data, err := os.ReadFile(goldenFile)
		if err != nil {
			return nil, fmt.Errorf("seed %d is checked against the committed output (run from the repository root): %w", goldenSeed, err)
		}
		r.golden = string(data)
	}
	return r, nil
}

func (r *reproWorkload) Close() { r.env = nil }

func (r *reproWorkload) envConfig() experiment.EnvConfig {
	cfg := experiment.EnvConfig{
		WorldSeed:    worldSeed,
		NumASes:      r.cfg.Size.ReproASes,
		CollectScale: r.cfg.Size.ReproScale,
		Budget:       r.cfg.Size.ReproBudget,
	}
	// cmd/experiments leaves the collection seed and the scan secret to
	// NewEnv's defaults, so the committed run is what goldenSeed gets too;
	// every other seed draws its own campaign on the same world.
	if r.cfg.Seed != goldenSeed {
		cfg.CollectSeed, cfg.ScanSecret = r.cfg.Seed, r.cfg.Seed
	}
	return cfg
}

// newEnv builds the environment and forces the world's lazy regions, so
// neither lands in a measured pass.
func newReproEnv(cfg experiment.EnvConfig) *experiment.Env {
	env := experiment.NewEnv(cfg)
	env.World.Stats()
	return env
}

func (r *reproWorkload) Setup() error {
	r.env = newReproEnv(r.envConfig())
	return nil
}

// reproSpecs lists the five specs in run order.
func reproSpecs(env *experiment.Env, budget int) []grid.Spec {
	return []grid.Spec{
		env.SpecRQ1a(icmpOnly, reproGens, budget),
		env.SpecTable4(reproGens, budget),
		env.SpecRQ1b(icmpOnly, reproGens, budget),
		env.SpecRQ2(icmpOnly, reproGens, budget),
		env.SpecRQ4(icmpOnly, reproGens, budget),
	}
}

// specNames index reproOutput.SpecMs.
var specNames = []string{"rq1a", "table4", "rq1b", "rq2", "rq4"}

// reproOutput is what one pass produced.
type reproOutput struct {
	SpecMs   [5]float64
	RenderMs float64
	// Blocks are the rendered tables and figures, in print order.
	Blocks []string
	// Errs holds one entry per failed spec.
	Errs []error
}

// reproPass runs the five harnesses and renderers on env.
func reproPass(ctx context.Context, env *experiment.Env, budget int) reproOutput {
	var out reproOutput
	render := func(fn func() []string) {
		start := time.Now()
		out.Blocks = append(out.Blocks, fn()...)
		out.RenderMs += msSince(start)
	}
	spec := func(i int, run func() (func() []string, error)) {
		start := time.Now()
		rend, err := run()
		out.SpecMs[i] = msSince(start)
		if err != nil {
			out.Errs = append(out.Errs, fmt.Errorf("%s: %w", specNames[i], err))
			return
		}
		render(rend)
	}
	spec(0, func() (func() []string, error) {
		res, err := env.RunRQ1aCtx(ctx, icmpOnly, reproGens, budget)
		return func() []string { return []string{res.Render(), res.RenderFigure()} }, err
	})
	spec(1, func() (func() []string, error) {
		res, err := env.RunTable4Ctx(ctx, reproGens, budget)
		return func() []string { return []string{res.Render()} }, err
	})
	spec(2, func() (func() []string, error) {
		res, err := env.RunRQ1bCtx(ctx, icmpOnly, reproGens, budget)
		return func() []string { return []string{res.Render()} }, err
	})
	spec(3, func() (func() []string, error) {
		res, err := env.RunRQ2Ctx(ctx, icmpOnly, reproGens, budget)
		return func() []string { return []string{res.Render(), res.RenderFigure()} }, err
	})
	spec(4, func() (func() []string, error) {
		res, err := env.RunRQ4Ctx(ctx, icmpOnly, reproGens, budget)
		return func() []string { return []string{res.Render(), res.RenderCumulativeFigure(proto.ICMP)} }, err
	})
	return out
}

// cellDigest identifies one cell's result: the three outcome counts and
// an order-free digest of the hit list.
func cellDigest(r grid.CellResult) string {
	return fmt.Sprintf("h%d/a%d/x%d/%s", r.Outcome.Hits, r.Outcome.ASes, r.Outcome.Aliases, setDigest(r.Hits))
}

// engineDigests reads every planned cell's result back from env's
// engine (all memoized by the pass, so nothing re-runs).
func engineDigests(ctx context.Context, env *experiment.Env, plan []grid.PlannedCell) (map[string]string, error) {
	cells := make([]grid.Cell, len(plan))
	for i, pc := range plan {
		cells[i] = pc.Cell
	}
	rs, err := env.Grid().Run(ctx, grid.Spec{Name: "benchmark digests", Cells: cells})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(cells))
	for _, c := range cells {
		out["cell."+c.ID()] = cellDigest(rs.Of(c))
	}
	return out, nil
}

// plannedCells counts the cells the specs request before dedup.
func plannedCells(specs []grid.Spec) int {
	n := 0
	for _, s := range specs {
		n += len(s.Cells)
	}
	return n
}

// accountPass folds one pass's outputs into the measurement: one operation
// per requested cell and per rendered block; a failed spec fails all its
// cells, a digest that differs from the first pass's fails its cell, and a
// table missing from the committed output fails its block.
func (r *reproWorkload) accountPass(m *measurement, specs []grid.Spec, out reproOutput, digests map[string]string) {
	m.Attempted += int64(plannedCells(specs) + 9)
	for _, err := range out.Errs {
		m.Failed += int64(plannedCells(specs)) / int64(len(specs))
		m.Notes = append(m.Notes, err.Error())
	}
	if r.golden != "" && len(out.Errs) == 0 {
		// Print order: RQ1.a table, RQ1.a figure, Table 4, RQ1.b table, RQ2
		// table, RQ2 figure, RQ4 table, RQ4 cumulative figure. The committed
		// run drew the first two figures across four protocols, which an
		// ICMP-only run cannot match.
		for i, block := range out.Blocks {
			if i == 1 || i == 5 {
				continue
			}
			if !strings.Contains(r.golden, strings.TrimRight(block, "\n")) {
				line, _, _ := strings.Cut(strings.TrimLeft(block, "\n"), "\n")
				m.Failed++
				m.Notes = append(m.Notes, fmt.Sprintf("%q is not in %s verbatim", line, goldenFile))
			}
		}
	}
	digests["render"] = digestOf(out.Blocks...)
	for _, k := range sortedKeys(digests) {
		first, seen := m.Digests[k]
		switch {
		case !seen:
			m.Digests[k] = digests[k]
		case first != digests[k]:
			m.Failed++
			m.Notes = append(m.Notes, fmt.Sprintf("%s: %s differs from the first pass's %s", k, digests[k], first))
		}
	}
}

func (r *reproWorkload) Measure(deadline time.Time) (*measurement, error) {
	ctx := context.Background()
	m := &measurement{Digests: make(map[string]string)}
	budget := r.cfg.Size.ReproBudget
	env := r.env
	r.env = nil // each pass's environment is garbage once its pass is over
	for first := true; first || time.Now().Before(deadline); first = false {
		if env == nil {
			// The engine memoizes cells for the life of an Env, so every
			// pass needs its own.
			env = newReproEnv(r.envConfig())
		}
		specs := reproSpecs(env, budget)
		pm := beginPass()
		out := reproPass(ctx, env, budget)
		m.Passes = append(m.Passes, pm.end(env.Scanner.Stats().PacketsSent.Load()))
		digests, err := engineDigests(ctx, env, grid.Plan(specs...))
		if err != nil {
			return nil, err
		}
		r.accountPass(m, specs, out, digests)
		env = nil
	}
	return m, nil
}

// replay carries the traced replay's accumulators.
type replay struct {
	tr      *Tracer
	env     *experiment.Env
	models  *modelcache.Cache
	gens    map[string]*genTimes
	dealias map[proto.Protocol]*meteredDealiaser

	treatNs, measureNs, cellNs int64
	generated, hits            int64
}

// cell re-executes one grid cell the way Env.RunCell does, but through
// the benchmark's wrappers: the same public calls, in the same order.
func (rp *replay) cell(ctx context.Context, c grid.Cell) (grid.CellResult, error) {
	sp, cellStart := rp.tr.Push("grid.cell"), time.Now()
	defer func() {
		rp.cellNs += int64(time.Since(cellStart))
		sp.Pop()
	}()

	tsp, start := rp.tr.Push("experiment.treatments"), time.Now()
	seedSet, err := rp.env.TreatmentSeeds(c.Treatment)
	rp.treatNs += int64(time.Since(start))
	tsp.Pop()
	if err != nil || len(seedSet) == 0 {
		return grid.CellResult{}, err
	}

	g, err := all.New(c.Gen)
	if err != nil {
		return grid.CellResult{}, err
	}
	gt := rp.gens[c.Gen]
	if gt == nil {
		gt = &genTimes{}
		rp.gens[c.Gen] = gt
	}
	d := rp.dealias[c.Proto]
	if d == nil {
		d = &meteredDealiaser{inner: rp.env.OutputDealiaser(c.Proto), tr: rp.tr}
		rp.dealias[c.Proto] = d
	}

	rsp := rp.tr.Push("tga.run")
	run, err := tga.RunContext(ctx, meterGenerator(g, rp.tr, gt), seedSet, tga.RunConfig{
		Budget:       c.Budget,
		BatchSize:    c.BatchSize,
		Proto:        c.Proto,
		Prober:       rp.env.Prober,
		Dealiaser:    d,
		ExcludeSeeds: true,
		Models:       rp.models,
		// Lockstep, so generation does not overlap scanning and every
		// span nests; offline generators produce the same result either way.
		Serial: true,
	})
	rsp.Pop()
	if err != nil {
		return grid.CellResult{}, err
	}
	rp.generated += int64(run.Generated)
	rp.hits += int64(len(run.Hits))

	msp, start := rp.tr.Push("metrics.measure"), time.Now()
	exclude := 0
	if c.Proto == proto.ICMP {
		exclude = world.PathologicalASN
	}
	out := metrics.Measure(run.Hits, run.AliasedHits, rp.env.World.ASDB(), exclude)
	rp.measureNs += int64(time.Since(start))
	msp.Pop()
	return grid.CellResult{Outcome: out, Hits: run.Hits}, nil
}

// replayLayers are the span names whose self times the waterfall must
// account the wall time to.
var replayLayers = []string{
	"experiment.treatments", "tga.run", "tga.init", "tga.next_batch", "tga.feedback",
	"alias.split", "scanner.scan", "world.link", "metrics.measure",
}

func (r *reproWorkload) Trace(tr *Tracer) (map[string]float64, *measurement, error) {
	ctx := context.Background()
	m := &measurement{Digests: make(map[string]string)}
	budget := r.cfg.Size.ReproBudget
	// experiment.NewEnv builds world and corpus itself; the same steps,
	// taken apart at the same size, give the set-up layers.
	v := buildFixture(sizing{ASes: r.cfg.Size.ReproASes, Scale: r.cfg.Size.ReproScale}, r.cfg.Seed).layerValues()

	// First the untraced shape: the engine pass, timed per spec from
	// outside. Its wall time is the base the waterfall is held against
	// and its cells are what the replay must reproduce.
	specs := reproSpecs(r.env, budget)
	plan := grid.Plan(specs...)
	engineStart := time.Now()
	out := reproPass(ctx, r.env, budget)
	engineNs := int64(time.Since(engineStart))
	want, err := engineDigests(ctx, r.env, plan)
	if err != nil {
		return nil, nil, err
	}
	r.accountPass(m, specs, out, want)
	for i, name := range specNames {
		v["experiment.spec_ms."+name] = out.SpecMs[i]
	}
	v["experiment.render_ms"] = out.RenderMs
	v["grid.cells_planned"] = float64(plannedCells(specs))
	v["grid.cells_unique"] = float64(len(plan))
	r.env = nil

	// Then the same deduplicated plan, one cell at a time, through the
	// wrappers, on a fresh environment whose prober is a one-worker
	// scanner over a metered link.
	start := time.Now()
	env := newReproEnv(r.envConfig())
	v["experiment.env_build_ms"] = msSince(start)
	meter := &linkMeter{tr: tr}
	sc := scanner.New(wire.Chain(env.World.Link(), meter),
		scanner.WithSecret(env.Cfg.ScanSecret), scanner.WithWorkers(1))
	prober := &meteredProber{inner: sc, tr: tr}
	env.Prober = prober
	rp := &replay{
		tr: tr, env: env, models: modelcache.New(),
		gens: make(map[string]*genTimes), dealias: make(map[proto.Protocol]*meteredDealiaser),
	}

	root := tr.Push("repro_icmp.replay")
	pm := beginPass()
	for _, pc := range plan {
		res, err := rp.cell(ctx, pc.Cell)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", pc.Cell.ID(), err)
		}
		// A waterfall of a run that computed something else is void.
		key := "cell." + pc.Cell.ID()
		if got := cellDigest(res); got != want[key] {
			m.Failed++
			m.Notes = append(m.Notes, fmt.Sprintf("replay %s: %s, engine run had %s", key, got, want[key]))
		}
	}
	m.Passes = append(m.Passes, pm.end(sc.Stats().PacketsSent.Load()))
	root.Pop()

	v["experiment.treatments_ms"] = float64(rp.treatNs) / 1e6
	v["grid.engine_overhead_ms"] = float64(engineNs-rp.cellNs) / 1e6
	v["metrics.measure_ms"] = float64(rp.measureNs) / 1e6
	var builds int64
	for _, name := range reproGens {
		gt := rp.gens[name]
		if gt == nil {
			continue
		}
		v["tga.init_ms"] += float64(gt.initNs) / 1e6
		v["tga.next_batch_ms"] += float64(gt.nextNs) / 1e6
		v["tga.feedback_ms"] += float64(gt.feedbackNs) / 1e6
		v["tga.gen_ms."+name] = float64(gt.initNs+gt.nextNs+gt.feedbackNs) / 1e6
		builds += gt.modelBuilds
	}
	v["tga.model_builds"] = float64(builds)
	v["tga.generated"] = float64(rp.generated)
	if rp.generated > 0 {
		v["tga.hit_ratio"] = float64(rp.hits) / float64(rp.generated)
	}
	for p, d := range rp.dealias {
		inner := env.OutputDealiaser(p)
		v["alias.split_ms"] += float64(d.ns) / 1e6
		v["alias.probes_sent"] += float64(inner.ProbesSent())
		v["alias.prefixes_tested"] += float64(inner.PrefixesTested())
		if d.prefixes > 0 {
			v["alias.cache_hit_ratio"] = 1 - float64(inner.PrefixesTested())/float64(d.prefixes)
		}
	}
	probes := float64(sc.Stats().PacketsSent.Load())
	v["scanner.scan_ms"] = float64(prober.ns.Load()) / 1e6
	v["scanner.probes"] = probes
	v["scanner.self_ns_per_probe"] = float64(prober.ns.Load()-meter.ns.Load()) / probes
	v["scanner.cookie_failures"] = float64(sc.Stats().InvalidCookie.Load())
	v["world.batch_ns_per_pkt"] = float64(meter.ns.Load()) / float64(meter.pkts.Load())
	v["world.reply_ratio"] = float64(meter.replies.Load()) / float64(meter.pkts.Load())

	rows := tr.waterfall()
	v["tga.driver_self_ms"] = selfMs(rows, "tga.run")
	var attributed float64
	for _, name := range replayLayers {
		attributed += selfMs(rows, name)
	}
	v["trace.attributed_pct"] = 100 * attributed / (float64(engineNs) / 1e6)
	return v, m, nil
}
