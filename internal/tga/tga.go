// Package tga defines the Target Generation Algorithm interface and the
// driver that runs a generator against the scanner, plus what the TGA
// implementations in the subpackages share: the pattern-mining machinery
// (observed-value masks, per-position entropy, space trees, and leaf
// enumerators — pattern.go, tree.go, model.go) and the two schedulers that
// walk mined regions (schedule.go): Expander, the proportional-share
// expansion behind 6Tree, 6Gen and 6Graph, and LeafSearch, the ranked
// exploit-and-explore search behind DET, 6Hit and 6Scan.
//
// Eight generators reproduce the paper's study set: Entropy/IP, 6Gen,
// 6Tree, 6Hit, DET, 6Graph, 6Scan, and 6Sense; two more (AddrMiner,
// 6Prob) extend beyond it — see tga/all for the paper-set vs extended-set
// split. Offline generators ignore Feedback; online generators (DET,
// 6Hit, 6Scan, 6Sense, AddrMiner) adapt their allocation to probe
// results, which is also what makes them susceptible to aliased-region
// traps when seeds are not dealiased.
//
// The driver runs every generator, online or offline, through one loop on
// the caller's goroutine: each batch is generated, deduplicated, scanned,
// dealiased and (for online generators) fed back before the next batch is
// generated. A run's working memory — its candidate set, sized for the
// budget, its batch buffers, its hit lists and a scheduler's run state —
// comes off a bounded free list (Scratch), so a warm run allocates none of
// it; a generator that takes the scratch (Lend) dedups its proposals in
// the set, so no address is recorded twice, keeps its scheduler's cursors
// there, and hands it back when the run ends.
package tga

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// ProbeResult tells an online generator how one of its candidates fared.
type ProbeResult struct {
	Addr ipaddr.Addr
	// Active is the raw scan outcome (pre-dealiasing) — online models in
	// the wild adapt to raw responses, which is how they fall into aliased
	// regions.
	Active bool
	// Aliased is the output dealiaser's verdict for the address. Only
	// generators with integrated dealiasing (6Sense) consult it.
	Aliased bool
}

// Generator is a Target Generation Algorithm.
type Generator interface {
	// Name returns the paper's label for the algorithm.
	Name() string
	// Online reports whether the generator adapts to Feedback.
	Online() bool
	// Init ingests the seed dataset. It may be called once per run. Seeds
	// arrive in canonical ascending order, without duplicates, and must be
	// treated as read-only; several algorithms (6Sense's arm creation,
	// 6Gen's greedy clustering) are order-sensitive, and the canonical
	// order is what makes runs reproducible and mined models cacheable.
	Init(seeds []ipaddr.Addr) error
	// NextBatch proposes up to n candidate addresses. An empty result
	// means the generator is exhausted. The returned slice belongs to the
	// caller, who may overwrite it; the generator must not read it again.
	// A generator may also have a method AppendBatch(dst, n) that appends
	// the same batch to dst and returns it, which the driver prefers.
	NextBatch(n int) []ipaddr.Addr
	// Feedback reports scan outcomes for previously proposed candidates.
	// Offline generators ignore it. results is valid only during the
	// call: the driver reuses its storage for the next batch.
	Feedback(results []ProbeResult)
}

// Dealiaser abstracts output dealiasing for the driver.
type Dealiaser interface {
	// Split partitions addrs, which the driver reuses for the next batch:
	// clean and aliased may share its storage, and Split may overwrite
	// it, but must not keep it.
	Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr)
}

// RunConfig parameterizes a generation-and-scan run.
type RunConfig struct {
	// Budget is the number of unique candidate addresses to generate
	// (the paper's 50M, scaled down): at least 1 and at most
	// ipaddr.MaxSetLen, which the run's candidate set holds.
	Budget int
	// BatchSize is the generate→scan→feedback granularity (default 4096).
	BatchSize int
	// Proto selects the probe type.
	Proto proto.Protocol
	// Prober runs the scans (nil: generation-only run, no feedback, and
	// RunResult.Candidates holds what was generated).
	Prober scanner.Prober
	// Dealiaser classifies active outputs (nil: nothing flagged aliased).
	Dealiaser Dealiaser
	// ExcludeSeeds removes seed addresses from the generated set, so the
	// budget buys genuinely new candidates.
	ExcludeSeeds bool
	// Serial has no effect; every run is lockstep.
	Serial bool
	// Models resolves mined seed models for generators that implement
	// ModelBuilder — typically the cross-run modelcache, so grid cells
	// sharing a seed treatment reuse the model across protocols. Nil:
	// the generator's own Init mines the model.
	Models ModelSource
}

// RunResult aggregates a run's outcome.
type RunResult struct {
	generator string
	proto     proto.Protocol
	// Generated is the number of unique candidates produced.
	Generated int
	// Hits are dealiased active addresses — the paper's headline metric.
	Hits []ipaddr.Addr
	// AliasedHits are active addresses the dealiaser discarded.
	AliasedHits []ipaddr.Addr
	// Exhausted reports whether the generator ran dry before the budget.
	Exhausted bool
	// Candidates holds every unique generated address in generation
	// order, only in a run without a RunConfig.Prober.
	Candidates []ipaddr.Addr
}

// maxIdleRounds is how many consecutive batches may propose nothing new
// before the driver declares the generator exhausted. Generators that loop
// over already-produced addresses (a converged online model, a small
// pattern space) would otherwise spin forever.
const maxIdleRounds = 64

// Run drives g: Init with seeds, then batches of generate→scan→feedback
// until the budget is reached or the generator is exhausted. It is
// RunContext with a background context.
func Run(g Generator, seeds []ipaddr.Addr, cfg RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), g, seeds, cfg)
}

// RunContext drives g under ctx: Init with seeds, then batches of
// generate→scan→feedback until the budget is reached, the generator is
// exhausted, or ctx is cancelled. On cancellation the partial result
// gathered so far is returned together with ctx.Err().
//
// When ctx carries a telemetry tracer (telemetry.NewContext), the driver
// emits a span hierarchy — run → batch → generate/scan/dealias/feedback —
// with per-batch budget consumption, and accumulates tga.* counters in the
// tracer's registry. A batch span ends before the next one starts.
//
// The run's scratch (Scratch) comes from a free list the package keeps:
// the candidate set, emptied and sized for the budget, the batch buffers
// the generator and the scans append into and the dealiaser partitions in
// place, the hit lists, of which the result gets exact-size copies on
// every way out of the run, cancellation included (nil when empty), and a
// scheduler's run state. When the prober has a method AppendScan(ctx, dst
// []scanner.Result, targets, p), as *scanner.Scanner does, each batch's
// results are appended into the scratch; any other prober's ScanContext
// returns them. Likewise a generator's AppendBatch(dst, n) fills the
// scratch's batch buffer, and NextBatch is the fallback. When g has a
// method Lend(*Scratch), the driver lends g the scratch: it calls the
// method once, after init and before the first batch, and from then on g
// checks its proposals against the candidate set and records every one
// there — seeds and addresses past the budget included — and may keep its
// scheduler state in the scratch; the driver no longer adds to the set,
// only filtering seeds and overflow out of each batch. On every way out of
// the run after init (budget reached, generator exhausted, ctx cancelled)
// the driver takes the scratch back with Lend(nil) before the free list
// gets it, so a spent generator fails loudly rather than writing into
// state another run holds. A generator without the method keeps its own
// dedup and state, and the driver records the fresh candidates in the set
// itself.
//
// The run's goroutine carries profiler labels (runtime/pprof): a layer,
// one of tga.init, tga.next_batch, scanner.scan, alias.split and
// tga.feedback, and in the generator's three, tga=<the generator's name>;
// the scanner's workers inherit scanner.scan. When the run returns, the
// goroutine carries the labels ctx carries.
func RunContext(ctx context.Context, g Generator, seeds []ipaddr.Addr, cfg RunConfig) (*RunResult, error) {
	if cfg.Budget <= 0 || cfg.Budget > ipaddr.MaxSetLen {
		return nil, fmt.Errorf("tga: budget must be in [1, %d], got %d", ipaddr.MaxSetLen, cfg.Budget)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4096
	}
	// A duplicated seed is one seed: every generator, and the model cache,
	// sees the same canonical set however often an address was listed.
	seeds = ipaddr.DedupSorted(CanonicalSeeds(seeds))
	ctx, runSpan := telemetry.StartSpan(ctx, "run", telemetry.Attrs{
		"generator": g.Name(),
		"proto":     cfg.Proto.String(),
		"budget":    cfg.Budget,
		"batch":     cfg.BatchSize,
		"seeds":     len(seeds),
	})
	d := &driver{
		g:       g,
		cfg:     cfg,
		reg:     telemetry.FromContext(ctx).Registry(),
		runSpan: runSpan,
		res:     &RunResult{generator: g.Name(), proto: cfg.Proto},
		labels:  newRunLabels(ctx, g.Name()),
	}
	defer pprof.SetGoroutineLabels(ctx)

	if err := d.init(ctx, seeds); err != nil {
		d.endRun(err)
		return nil, fmt.Errorf("tga: init %s: %w", g.Name(), err)
	}
	if cfg.ExcludeSeeds {
		d.excluded = seeds
	}
	lender, _ := g.(interface{ Lend(*Scratch) })
	d.sc, d.shared = getScratch(cfg.Budget), lender != nil
	if d.shared {
		lender.Lend(d.sc)
	}
	if cfg.Prober == nil {
		// The run lists its candidates, at most its budget of them.
		d.res.Candidates = make([]ipaddr.Addr, 0, cfg.Budget)
	}

	err := d.runLockstep(ctx)
	if d.shared {
		lender.Lend(nil)
	}
	d.res.Hits, d.res.AliasedHits = exactCopy(d.sc.hits), exactCopy(d.sc.aliasedHits)
	putScratch(d.sc)
	d.res.Generated = d.generated
	d.endRun(err)
	return d.res, err
}

// Scratch is one run's memory that outlives it: the candidate set, the
// batch loop's buffers (the generator's batch, the scan's results, the
// active addresses the dealiaser partitions in place, the feedback, the
// aliased hits as a set), the hit lists the batches append to, and a
// scheduler's run state (the cursor slab and what ranks it, the pending
// proposals, the raw hits). The driver lends it to a generator with a
// method Lend(*Scratch) (see RunContext).
type Scratch struct {
	seen              *ipaddr.Set
	batch             []ipaddr.Addr
	results           []scanner.Result
	active            []ipaddr.Addr
	fb                []ProbeResult
	aliases           ipaddr.Set
	hits, aliasedHits []ipaddr.Addr
	sched             schedState
	// most is the most addresses a set was sized or filled for in this
	// run, a lower bound on the storage Reset leaves them holding.
	most int
}

// Candidates returns the run's candidate set, which a generator lent the
// scratch checks and records its proposals in (nil for a nil scratch:
// the take-back). The zero Scratch is ready to use: it makes an empty
// set.
func (sc *Scratch) Candidates() *ipaddr.Set {
	if sc == nil {
		return nil
	}
	if sc.seen == nil {
		sc.seen = ipaddr.NewSet()
	}
	return sc.seen
}

// runScratches keeps finished runs' scratch, one per concurrent run of
// the experiment grid; scratch with a set or buffer holding more entries
// than the policy keeps is dropped.
var runScratches = memo.NewFreeList(scribbleScratch)

// getScratch returns scratch whose set is empty with room for budget
// addresses and whose buffers are empty: recycled when the free list has
// some, fresh otherwise.
func getScratch(budget int) *Scratch {
	sc, ok := runScratches.Get()
	if !ok {
		return &Scratch{seen: ipaddr.NewSetCap(budget), most: budget, sched: schedState{budget: budget}}
	}
	sc.seen.Reset(budget)
	sc.hits, sc.aliasedHits = sc.hits[:0], sc.aliasedHits[:0]
	sc.most, sc.sched.budget = budget, budget
	return sc
}

// putScratch puts sc on the free list unless it is too large or the list
// is full. Nothing may read or write sc afterwards.
func putScratch(sc *Scratch) {
	runScratches.Recycle(sc, max(sc.most, sc.seen.Len(), cap(sc.batch), cap(sc.results), cap(sc.active),
		cap(sc.fb), cap(sc.hits), cap(sc.aliasedHits), sc.sched.entries()))
}

// scribbleScratch is the free list's poison (memo.NewFreeList). Every
// buffer is filled out to its capacity: the batch, the active addresses
// and the hit lists with junk addresses, the results with active junk, the
// feedback with aliased hits; the candidate set gets junk and the aliased
// set every candidate of the run that used it last. The scheduler state
// gets dry, over-counted cursors whose enumerators are out of range, junk
// rankings, enumerators and raw hits, and a pending proposal from an
// out-of-range leaf for every candidate.
func scribbleScratch(sc *Scratch) {
	junk := ipaddr.AddrFrom64s(0x3fff_0bad_0000_0000, 0x7)
	for _, s := range [][]ipaddr.Addr{sc.batch, sc.active, sc.hits, sc.aliasedHits, sc.sched.hits} {
		for i := range s[:cap(s)] {
			s[:cap(s)][i] = junk
		}
	}
	sc.batch, sc.active = sc.batch[:cap(sc.batch)], sc.active[:cap(sc.active)]
	sc.hits, sc.aliasedHits = sc.hits[:cap(sc.hits)], sc.aliasedHits[:cap(sc.aliasedHits)]
	sc.results = sc.results[:cap(sc.results)]
	for i := range sc.results {
		sc.results[i] = scanner.Result{Addr: junk, Status: scanner.StatusActive}
	}
	sc.fb = sc.fb[:cap(sc.fb)]
	for i := range sc.fb {
		sc.fb[i] = ProbeResult{Addr: junk, Active: true, Aliased: true}
	}
	sc.seen.Each(func(a ipaddr.Addr) { sc.aliases.Add(a) })
	sc.seen.Add(junk)

	st := &sc.sched
	st.hits = st.hits[:cap(st.hits)]
	st.cursors = st.cursors[:cap(st.cursors)]
	for i := range st.cursors {
		st.cursors[i] = Cursor{Seeds: -1, Probes: 1 << 40, Hits: 1 << 40, weight: -1, produced: 1 << 40, gen: -1, dry: true}
	}
	st.gens = st.gens[:cap(st.gens)]
	for i := range st.gens {
		st.gens[i] = leafGen{job: maskEnum{cur: junk, state: enumRunning}, nOrder: 0}
	}
	for _, s := range []*[]int32{&st.order, &st.spare, &st.moved, &st.drawn} {
		*s = (*s)[:cap(*s)]
		for i := range *s {
			(*s)[i] = -1
		}
	}
	st.mark = st.mark[:cap(st.mark)]
	for i := range st.mark {
		st.mark[i] = inMoved | inDrawn
	}
	if st.pending != nil {
		sc.seen.Each(func(a ipaddr.Addr) { st.pending[a] = -1 })
	}
}

// exactCopy returns a copy of s at its length, or nil when s is empty.
func exactCopy(s []ipaddr.Addr) []ipaddr.Addr {
	if len(s) == 0 {
		return nil
	}
	return append(make([]ipaddr.Addr, 0, len(s)), s...)
}

// runLabels are a run's profiler label sets, one context per layer, built
// once per run so that switching the goroutine between them
// (pprof.SetGoroutineLabels) allocates nothing per batch.
type runLabels struct {
	init, nextBatch, scan, split, feedback context.Context
}

// newRunLabels derives the run's label sets from the caller's: each adds
// its layer to the labels ctx carries, and the generator's own layers add
// tga=name, so that a tga label's CPU is the generator's alone.
func newRunLabels(ctx context.Context, name string) runLabels {
	gen := pprof.WithLabels(ctx, pprof.Labels("tga", name))
	layer := func(ctx context.Context, l string) context.Context {
		return pprof.WithLabels(ctx, pprof.Labels("layer", l))
	}
	return runLabels{
		init:      layer(gen, "tga.init"),
		nextBatch: layer(gen, "tga.next_batch"),
		scan:      layer(ctx, "scanner.scan"),
		split:     layer(ctx, "alias.split"),
		feedback:  layer(gen, "tga.feedback"),
	}
}

// driver carries one run's state.
type driver struct {
	g       Generator
	cfg     RunConfig
	reg     *telemetry.Registry
	runSpan *telemetry.Span
	res     *RunResult

	excluded  []ipaddr.Addr // the canonical seeds when ExcludeSeeds, else nil
	sc        *Scratch      // the run's candidate set and buffers
	shared    bool          // the generator writes sc.seen, the driver does not
	labels    runLabels
	generated int // fresh candidates so far
	idle      int
	batchIdx  int
}

// init resolves the generator's model — through the configured
// ModelSource when the generator supports the ModelBuilder split — and
// initializes run state.
func (d *driver) init(ctx context.Context, seeds []ipaddr.Addr) error {
	initSpan := d.runSpan.Child("init", nil)
	pprof.SetGoroutineLabels(d.labels.init)
	start := time.Now()
	var err error
	if mb, ok := d.g.(ModelBuilder); ok && d.cfg.Models != nil {
		var m Model
		m, err = d.cfg.Models.GetOrBuild(ctx, mb, seeds)
		if err == nil {
			err = mb.InitFromModel(m, seeds)
		}
	} else {
		err = d.g.Init(seeds)
	}
	d.reg.ObserveDuration("tga.init_seconds", time.Since(start).Seconds())
	initSpan.EndWith(telemetry.Attrs{"cached_model": d.cfg.Models != nil})
	return err
}

func (d *driver) endRun(err error) {
	d.runSpan.EndWith(telemetry.Attrs{
		"generated": d.res.Generated,
		"hits":      len(d.res.Hits),
		"aliased":   len(d.res.AliasedHits),
		"exhausted": d.res.Exhausted,
		"cancelled": err != nil,
	})
}

// produce asks the generator for one full batch and filters it in place
// against the seed set and, unless the generator dedups against the shared
// set, previously generated addresses, capped at the budget left. It
// returns the fresh candidates and whether the driver should keep going: false
// means the generator is exhausted (res.Exhausted is set) — either it
// proposed nothing or it spent maxIdleRounds batches proposing only
// duplicates. The caller owns the parent span for the generate stage.
//
// Always requesting a full batch, even when little budget remains,
// matters: tiny requests starve on seed-or-duplicate candidates (a 1-seed
// leaf's first enumeration is the seed itself). Extras beyond the budget
// are discarded.
func (d *driver) produce(parent *telemetry.Span) (fresh []ipaddr.Addr, cont bool) {
	genSpan := parent.Child("generate", nil)
	pprof.SetGoroutineLabels(d.labels.nextBatch)
	var batch []ipaddr.Addr
	if ab, ok := d.g.(interface {
		AppendBatch([]ipaddr.Addr, int) []ipaddr.Addr
	}); ok {
		d.sc.batch = ab.AppendBatch(d.sc.batch[:0], d.cfg.BatchSize)
		batch = d.sc.batch
	} else {
		batch = d.g.NextBatch(d.cfg.BatchSize)
	}
	rem := d.cfg.Budget - d.generated
	fresh = batch[:0]
	for _, a := range batch {
		if len(fresh) >= rem {
			break
		}
		if _, seed := slices.BinarySearchFunc(d.excluded, a, ipaddr.Addr.Compare); seed {
			continue
		}
		if d.shared || d.sc.seen.Add(a) {
			fresh = append(fresh, a)
		}
	}
	d.generated += len(fresh)
	genSpan.EndWith(telemetry.Attrs{"proposed": len(batch), "fresh": len(fresh)})
	d.reg.Counter("tga.generated").Add(int64(len(fresh)))
	if len(batch) == 0 {
		d.res.Exhausted = true
		return nil, false
	}
	if len(fresh) == 0 {
		d.idle++
		if d.idle > maxIdleRounds {
			d.res.Exhausted = true
			return nil, false
		}
		return nil, true
	}
	d.idle = 0
	return fresh, true
}

// consume scans one fresh batch, splits the actives, accumulates hits, and
// feeds results back to online generators. batchSpan is the parent for the
// stage spans; the caller ends it.
func (d *driver) consume(ctx context.Context, batchSpan *telemetry.Span, fresh []ipaddr.Addr) (hits, aliased int, err error) {
	scanSpan := batchSpan.Child("scan", nil)
	pprof.SetGoroutineLabels(d.labels.scan)
	var results []scanner.Result
	if as, ok := d.cfg.Prober.(interface {
		AppendScan(context.Context, []scanner.Result, []ipaddr.Addr, proto.Protocol) ([]scanner.Result, error)
	}); ok {
		d.sc.results, err = as.AppendScan(ctx, d.sc.results[:0], fresh, d.cfg.Proto)
		results = d.sc.results
	} else {
		results, err = scanner.AsContextProber(d.cfg.Prober).ScanContext(ctx, fresh, d.cfg.Proto)
	}
	active := d.sc.active[:0]
	for _, r := range results {
		if r.Active() {
			active = append(active, r.Addr)
		}
	}
	d.sc.active = active
	scanSpan.EndWith(telemetry.Attrs{"targets": len(fresh), "active": len(active)})
	if err != nil {
		return 0, 0, err
	}

	clean, aliasedAddrs := active, []ipaddr.Addr(nil)
	if d.cfg.Dealiaser != nil {
		dealiasSpan := batchSpan.Child("dealias", nil)
		pprof.SetGoroutineLabels(d.labels.split)
		clean, aliasedAddrs = d.cfg.Dealiaser.Split(active)
		dealiasSpan.EndWith(telemetry.Attrs{"clean": len(clean), "aliased": len(aliasedAddrs)})
	}
	d.sc.hits = append(d.sc.hits, clean...)
	d.sc.aliasedHits = append(d.sc.aliasedHits, aliasedAddrs...)
	d.reg.Counter("tga.hits").Add(int64(len(clean)))
	d.reg.Counter("tga.aliased_hits").Add(int64(len(aliasedAddrs)))

	if d.g.Online() {
		fbSpan := batchSpan.Child("feedback", nil)
		pprof.SetGoroutineLabels(d.labels.feedback)
		aliases := &d.sc.aliases
		if len(aliasedAddrs) > 0 {
			aliases.Reset(len(aliasedAddrs))
			aliases.AddAll(aliasedAddrs)
			d.sc.most = max(d.sc.most, len(aliasedAddrs))
		}
		fb := slices.Grow(d.sc.fb[:0], len(results))
		for _, r := range results {
			fb = append(fb, ProbeResult{
				Addr:    r.Addr,
				Active:  r.Active(),
				Aliased: len(aliasedAddrs) > 0 && aliases.Contains(r.Addr),
			})
		}
		d.sc.fb = fb
		d.g.Feedback(fb)
		fbSpan.EndWith(telemetry.Attrs{"results": len(fb)})
	}
	return len(clean), len(aliasedAddrs), nil
}

// runLockstep is the driver's loop: one batch generates, scans,
// dealiases, and feeds back before the next batch generates, so online
// generators see every earlier result and batch spans never overlap.
func (d *driver) runLockstep(ctx context.Context) error {
	for d.generated < d.cfg.Budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		batchSpan := d.runSpan.Child("batch", telemetry.Attrs{"index": d.batchIdx})
		d.batchIdx++
		d.reg.Counter("tga.batches").Inc()

		fresh, cont := d.produce(batchSpan)
		if !cont {
			batchSpan.EndWith(telemetry.Attrs{"budget_used": d.generated, "exhausted": true})
			break
		}
		if len(fresh) == 0 {
			batchSpan.EndWith(telemetry.Attrs{"budget_used": d.generated, "idle": true})
			continue
		}
		if d.cfg.Prober == nil {
			d.res.Candidates = append(d.res.Candidates, fresh...)
			batchSpan.EndWith(telemetry.Attrs{"budget_used": d.generated})
			continue
		}
		hits, aliased, err := d.consume(ctx, batchSpan, fresh)
		if err != nil {
			batchSpan.EndWith(telemetry.Attrs{"budget_used": d.generated, "cancelled": true})
			return err
		}
		batchSpan.EndWith(telemetry.Attrs{
			"budget_used": d.generated,
			"hits":        hits,
			"aliased":     aliased,
		})
	}
	return nil
}

// CanonicalSeeds returns seeds in the canonical ascending order every
// Generator.Init expects. Already-sorted input (the common case now that
// experiment treatments sort once) is returned as-is, without copying;
// otherwise a sorted copy is made so the caller's slice is untouched.
func CanonicalSeeds(seeds []ipaddr.Addr) []ipaddr.Addr {
	if sort.SliceIsSorted(seeds, func(i, j int) bool { return seeds[i].Less(seeds[j]) }) {
		return seeds
	}
	out := append([]ipaddr.Addr(nil), seeds...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Generate runs g without scanning and returns up to budget unique
// candidates in generation order — useful for offline analysis and tests.
// It is Run with no prober, so it shares the driver's full-batch requests,
// dedup and idle-round exhaustion.
func Generate(g Generator, seeds []ipaddr.Addr, budget int) ([]ipaddr.Addr, error) {
	res, err := RunContext(context.Background(), g, seeds, RunConfig{Budget: budget})
	if err != nil {
		return nil, err
	}
	return res.Candidates, nil
}
