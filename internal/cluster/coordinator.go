package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// Config parameterizes a pool's coordinator. Zero values get defaults
// from fillDefaults; Secret must be the reference single scanner's for
// byte-identical results.
type Config struct {
	// Secret keys validation cookies and the canonical shuffle.
	Secret uint64
	// shardSize is the target count per shard (default 2048).
	shardSize int
	// maxInflight bounds how many shards may be leased at once — the
	// backpressure knob. Default: one per worker.
	maxInflight int
	// leaseTimeout expires a lease whose worker has neither completed
	// nor heartbeat within it (default 30s).
	leaseTimeout time.Duration
	// maxShardAttempts fails the run when one shard keeps dying
	// (default 5 lease attempts).
	maxShardAttempts int
	// workerFailureLimit retires a worker after this many consecutive
	// failed or expired leases (default 3); a completed shard resets it.
	workerFailureLimit int
	// Wire is the chain every worker probes through: NewLocalPool builds
	// it once over its link, shared by all its workers. Its middlewares
	// are pure functions of seed and packet bytes, so sharding changes
	// nothing about what they do in aggregate.
	Wire wire.ChainConfig
	// Chain holds extra middlewares NewLocalPool composes outside Wire's
	// (outermost first).
	Chain []wire.Middleware
	// Telemetry receives the cluster.* metrics (nil: telemetry off).
	Telemetry *telemetry.Registry
	// Logf reports lease failures, expiries, and worker retirement —
	// events the merged result hides when recovery succeeds (nil: silent).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults(workers int) {
	if c.shardSize <= 0 {
		c.shardSize = 2048
	}
	if c.maxInflight <= 0 {
		c.maxInflight = workers
	}
	if c.leaseTimeout == 0 {
		c.leaseTimeout = 30 * time.Second
	}
	if c.maxShardAttempts == 0 {
		c.maxShardAttempts = 5
	}
	if c.workerFailureLimit == 0 {
		c.workerFailureLimit = 3
	}
}

// coordinator shards scans across a worker pool. One coordinator may
// serve many concurrent runs. What it keeps between them is scratch: the
// canonical plans and lease buffers of runs that ended with no runner
// outstanding, on a free list each run takes its own entry from.
type coordinator struct {
	cfg     Config
	scratch memo.FreeList[*runScratch]
}

// newCoordinator returns a coordinator with the given configuration.
func newCoordinator(cfg Config) *coordinator {
	return &coordinator{cfg: cfg, scratch: make(memo.FreeList[*runScratch], memo.FreeListLen)}
}

// runScratch is one run's memory that outlives it: the canonical plan and
// the free lease result buffers, so a run allocates only its RunResult
// and small change.
type runScratch struct {
	plan []ipaddr.Addr
	bufs [][]scanner.Result
}

// getScratch takes a free entry, or makes one if none is free.
func (c *coordinator) getScratch() *runScratch {
	if sc, ok := c.scratch.Get(); ok {
		return sc
	}
	return new(runScratch)
}

// putScratch returns sc to the free list, which keeps one run's scratch
// per concurrent caller (the experiment grid runs its cells through one
// pool), unless the list is full or sc holds more targets of plan or of
// lease buffers than memo's policy keeps. Only a run with no runner
// outstanding may: a straggler on an expired lease may still read its
// window and write its buffer.
func (c *coordinator) putScratch(sc *runScratch) {
	held := 0
	for _, b := range sc.bufs {
		held += cap(b)
	}
	c.scratch.Recycle(sc, max(cap(sc.plan), held))
}

// WorkerReport is one worker's contribution to a run.
type WorkerReport struct {
	ShardsCompleted int
	PacketsSent     int64
	wallSeconds     float64
}

// PPS is the worker's average probing rate over its completed shards.
func (r WorkerReport) PPS() float64 {
	if r.wallSeconds <= 0 {
		return 0
	}
	return float64(r.PacketsSent) / r.wallSeconds
}

// RunResult is a merged cluster scan: Results in the canonical order (and
// with the exact contents) of the equivalent single-scanner run, Stats the
// sum of every completed shard's contribution.
type RunResult struct {
	Results    []scanner.Result
	Stats      *scanner.Stats
	Shards     int
	Reassigned int
	Workers    map[string]WorkerReport
}

// lease is one shard assignment. beatNs is the run clock (runState.clock)
// at the last sign of life: stored by the worker's heartbeat callback on
// its runner goroutine, read by the coordinator's expiry sweep. dst is the
// result buffer lent to the worker as shard.dst, free again once its
// runner has reported.
type lease struct {
	shard  int
	worker int
	cancel context.CancelFunc
	beatNs atomic.Int64
	dst    []scanner.Result
}

// doneEvent is a runner goroutine's terminal report.
type doneEvent struct {
	le  *lease
	res *shardResult
	err error
}

// run scans targets on p across workers and merges the shards. The merged
// Results and Stats are byte-identical to one scanner (configured with the
// coordinator's Secret over the same link) scanning targets directly,
// provided every worker's scanner replicates that reference configuration
// — localWorker pools built by NewLocalPool do.
func (c *coordinator) run(ctx context.Context, workers []worker, targets []ipaddr.Addr, p proto.Protocol) (*RunResult, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	cfg := c.cfg
	cfg.fillDefaults(len(workers))

	sc := c.getScratch()
	canonical := scanner.PlanOrder(sc.plan[:0], cfg.Secret, true, targets, p)
	sc.plan = canonical
	// Not (n + shardSize - 1) / shardSize, which overflows for a
	// shardSize near math.MaxInt.
	shards := 0
	if n := len(canonical); n > 0 {
		shards = (n-1)/cfg.shardSize + 1
	}

	run := &runState{
		cfg:       cfg,
		workers:   workers,
		proto:     p,
		canonical: canonical,
		bufs:      sc.bufs,
		bufCap:    min(cfg.shardSize, len(canonical)),
		start:     time.Now(),
		attempts:  make([]int, shards),
		leases:    make(map[int]*lease),
		done:      make([]bool, shards),
		out:       make([]scanner.Result, len(canonical)),
		stats:     &scanner.Stats{},
		busy:      make([]bool, len(workers)),
		dead:      make([]bool, len(workers)),
		fails:     make([]int, len(workers)),
		// Buffered so a runner goroutine can always deliver its terminal
		// event even after run has returned (stale workers never block).
		events:  make(chan doneEvent, len(workers)),
		reports: make(map[string]WorkerReport, len(workers)),
		reg:     cfg.Telemetry,
	}
	for i := shards - 1; i >= 0; i-- {
		run.pending = append(run.pending, i)
	}

	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()

	err := run.loop(rctx)
	if run.running == 0 {
		sc.bufs = run.bufs
		c.putScratch(sc)
	}
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Results:    run.out,
		Stats:      run.stats,
		Shards:     shards,
		Reassigned: run.reassigned,
		Workers:    run.reports,
	}, nil
}

// runState is the mutable state of one run, owned by the event loop
// goroutine; runner goroutines communicate only through events and their
// lease's beatNs.
type runState struct {
	cfg       Config
	workers   []worker
	proto     proto.Protocol
	canonical []ipaddr.Addr      // the one plan; shard i is its i-th window
	bufs      [][]scanner.Result // free lease buffers
	bufCap    int                // a lease buffer's capacity: the widest window
	start     time.Time          // zero of the lease clock

	pending  []int // shard ids awaiting a lease (LIFO)
	attempts []int
	leases   map[int]*lease
	done     []bool // shard recorded into out and stats
	recorded int
	out      []scanner.Result // canonical order, filled shard by shard
	stats    *scanner.Stats
	busy     []bool // worker has a runner goroutine outstanding
	running  int    // how many do
	dead     []bool
	fails    []int

	events     chan doneEvent
	reassigned int
	reports    map[string]WorkerReport
	reg        *telemetry.Registry
}

// shard returns shard sid: the sid-th shardSize-wide window of the
// canonical order, capacity clipped so a worker cannot append into the
// next window.
func (r *runState) shard(sid int) shard {
	lo := sid * r.cfg.shardSize
	hi := lo + min(r.cfg.shardSize, len(r.canonical)-lo)
	return shard{id: sid, targets: r.canonical[lo:hi:hi]}
}

// buffer takes a free lease buffer with room for any window, or makes one.
func (r *runState) buffer() []scanner.Result {
	for len(r.bufs) > 0 {
		b := r.bufs[len(r.bufs)-1]
		r.bufs = r.bufs[:len(r.bufs)-1]
		if cap(b) >= r.bufCap {
			return b[:0]
		}
	}
	return make([]scanner.Result, 0, r.bufCap)
}

// clock is the monotonic time since the run started, in nanoseconds.
func (r *runState) clock() int64 { return int64(time.Since(r.start)) }

// loop drives leases until every shard is recorded or the run fails.
func (r *runState) loop(ctx context.Context) error {
	ticker := time.NewTicker(max(r.cfg.leaseTimeout/4, time.Millisecond))
	defer ticker.Stop()

	for r.recorded < len(r.done) {
		if err := r.assign(ctx); err != nil {
			return err
		}
		if r.running == 0 {
			// Nothing running, nothing assignable: every worker is retired
			// while shards remain.
			return fmt.Errorf("cluster: %d shards unfinished and no live workers remain",
				len(r.done)-r.recorded)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-r.events:
			r.handleDone(ev)
		case <-ticker.C:
			r.expire()
		}
	}
	return nil
}

// assign leases pending shards to idle live workers, bounded by
// MaxInflight.
func (r *runState) assign(ctx context.Context) error {
	for len(r.pending) > 0 && len(r.leases) < r.cfg.maxInflight {
		wi := r.idleWorker()
		if wi < 0 {
			return nil
		}
		sid := r.pending[len(r.pending)-1]
		if r.attempts[sid] >= r.cfg.maxShardAttempts {
			return fmt.Errorf("cluster: shard %d failed %d lease attempts", sid, r.attempts[sid])
		}
		r.pending = r.pending[:len(r.pending)-1]
		r.attempts[sid]++

		lctx, cancel := context.WithCancel(ctx)
		le := &lease{shard: sid, worker: wi, cancel: cancel, dst: r.buffer()}
		le.beatNs.Store(r.clock())
		r.leases[sid] = le
		r.busy[wi] = true
		r.running++
		r.gaugeInflight()
		r.reg.Counter("cluster.shards.leased").Inc()
		r.reg.Counter("cluster.worker." + r.workers[wi].ID() + ".shards_leased").Inc()

		sh := r.shard(sid)
		sh.dst = le.dst
		go func(w worker, le *lease, sh shard) {
			res, err := w.RunShard(lctx, r.proto, sh, func(int) { le.beatNs.Store(r.clock()) })
			r.events <- doneEvent{le: le, res: res, err: err}
		}(r.workers[wi], le, sh)
	}
	return nil
}

// idleWorker returns a live worker without an outstanding runner, or -1.
func (r *runState) idleWorker() int {
	for i := range r.workers {
		if !r.busy[i] && !r.dead[i] {
			return i
		}
	}
	return -1
}

// expire revokes leases whose workers have gone quiet past the timeout and
// requeues their shards.
func (r *runState) expire() {
	now := r.clock()
	for sid, le := range r.leases {
		if now-le.beatNs.Load() <= int64(r.cfg.leaseTimeout) {
			continue
		}
		le.cancel()
		delete(r.leases, sid)
		r.requeue(sid)
		r.gaugeInflight()
		r.logf("cluster: lease on shard %d expired after %v of silence from worker %s",
			sid, r.cfg.leaseTimeout, r.workers[le.worker].ID())
		r.workerFailed(le.worker)
		// busy[worker] stays set until its runner goroutine reports: a hung
		// worker must not be leased another shard.
	}
}

// requeue puts a shard whose lease failed or expired back in line.
func (r *runState) requeue(sid int) {
	r.pending = append(r.pending, sid)
	r.reassigned++
	r.reg.Counter("cluster.shards.reassigned").Inc()
}

// handleDone processes one runner goroutine's terminal report. The
// runner has returned, so nothing writes its lease's buffer any more: it
// is free once the results in it are merged, or dropped.
func (r *runState) handleDone(ev doneEvent) {
	wi, sid := ev.le.worker, ev.le.shard
	r.busy[wi] = false
	r.running--
	defer func() { r.bufs = append(r.bufs, ev.le.dst) }()
	current := r.leases[sid] == ev.le
	if current {
		delete(r.leases, sid)
		ev.le.cancel()
		r.gaugeInflight()
	}
	if r.done[sid] {
		// A straggler on an expired lease finishing (or failing) after the
		// shard was recorded elsewhere: same bytes, nothing to do.
		return
	}

	sh := r.shard(sid)
	err := ev.err
	if err == nil {
		// An answer that is not this lease's shard, target for target, is
		// a failed lease like any other: it must never reach out.
		err = checkResult(sh, ev.res)
	}
	switch {
	case err == nil:
		// First completion wins — whether the lease is still current or
		// was expired and the straggler finished late, the bytes are the
		// same, so accept it and drop any competing reassigned lease. The
		// dropped runner reports back through handleDone as a stale event
		// and is not charged a failure.
		if other, ok := r.leases[sid]; ok {
			other.cancel()
			delete(r.leases, sid)
			r.gaugeInflight()
		}
		r.removePending(sid)
		r.record(wi, sh, ev.res)
	case current:
		// Failure while holding the lease: requeue and charge the worker.
		r.requeue(sid)
		r.logf("cluster: shard %d failed on worker %s: %v", sid, r.workers[wi].ID(), err)
		r.workerFailed(wi)
	default:
		// Failure on an expired lease — the shard has already been
		// requeued; nothing to do.
	}
}

// checkResult verifies a worker's answer against the shard it was leased:
// the lease's shard id, stats, one result per target, each echoing its
// target's address in target order with a status a scanner can produce.
// The positional merge relies on exactly this.
func checkResult(sh shard, res *shardResult) error {
	if res == nil || res.stats == nil {
		return errors.New("no result, or one without stats")
	}
	if res.shard != sh.id || len(res.results) != len(sh.targets) {
		return fmt.Errorf("answer is shard %d with %d results, leased %d targets",
			res.shard, len(res.results), len(sh.targets))
	}
	for j, got := range res.results {
		if got.Addr != sh.targets[j] || got.Status > scanner.StatusBlocked {
			return fmt.Errorf("result %d is %v with status %d, target %d is %v",
				j, got.Addr, got.Status, j, sh.targets[j])
		}
	}
	return nil
}

// workerFailed charges one failure and retires the worker at the limit.
func (r *runState) workerFailed(wi int) {
	r.fails[wi]++
	r.reg.Counter("cluster.worker." + r.workers[wi].ID() + ".failures").Inc()
	if r.fails[wi] >= r.cfg.workerFailureLimit && !r.dead[wi] {
		r.dead[wi] = true
		r.logf("cluster: retiring worker %s after %d consecutive failures",
			r.workers[wi].ID(), r.fails[wi])
	}
}

// logf reports through the configured sink, if any.
func (r *runState) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// record merges a verified shard — results into its window of out, stats
// into the run's sum — and updates per-worker accounting.
func (r *runState) record(wi int, sh shard, res *shardResult) {
	copy(r.out[sh.id*r.cfg.shardSize:], res.results)
	r.stats.Add(res.stats)
	r.done[sh.id] = true
	r.recorded++
	r.fails[wi] = 0
	id := r.workers[wi].ID()
	rep := r.reports[id]
	rep.ShardsCompleted++
	rep.wallSeconds += res.wallSeconds
	sent := res.stats.PacketsSent.Load()
	rep.PacketsSent += sent
	r.reports[id] = rep
	r.reg.Counter("cluster.shards.completed").Inc()
	r.reg.Counter("cluster.worker." + id + ".shards_completed").Inc()
	r.reg.Counter("cluster.worker." + id + ".packets_sent").Add(sent)
	r.reg.Gauge("cluster.worker." + id + ".pps").Set(rep.PPS())
}

// removePending deletes sid from the pending queue if present.
func (r *runState) removePending(sid int) {
	for i, s := range r.pending {
		if s == sid {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *runState) gaugeInflight() {
	r.reg.Gauge("cluster.shards.inflight").Set(float64(len(r.leases)))
}
