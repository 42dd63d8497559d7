package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/world"
)

const testSecret = 0x5eed

// testTargets mixes responsive hosts, lossy regions, and unrouted space so
// every result status and the retry machinery are exercised.
func testTargets(t testing.TB, w *world.World) []ipaddr.Addr {
	t.Helper()
	samp := w.NewSampler(77)
	targets := samp.ActiveHosts(600, proto.ICMP)
	base := ipaddr.MustParse("2001:db8:dead::")
	for i := 0; i < 400; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	// Duplicates: the canonical plan must dedup exactly like a scanner.
	return append(targets, targets[:100]...)
}

func clusterWorld(t testing.TB) *world.World {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 80, LossRate: 0.05})
	w.SetEpoch(world.ScanEpoch)
	return w
}

// baseline runs the reference single scanner the cluster must match.
func baseline(w *world.World, targets []ipaddr.Addr, p proto.Protocol) ([]scanner.Result, [7]int64) {
	s := scanner.New(w.Link(), scanner.WithSecret(testSecret))
	res := s.Scan(targets, p)
	return res, s.Stats().Values()
}

func assertIdentical(t *testing.T, p proto.Protocol, got *RunResult, wantRes []scanner.Result, wantStats [7]int64) {
	t.Helper()
	if len(got.Results) != len(wantRes) {
		t.Fatalf("%v: cluster returned %d results, single scanner %d", p, len(got.Results), len(wantRes))
	}
	for i := range wantRes {
		if got.Results[i] != wantRes[i] {
			t.Fatalf("%v: result %d diverges: cluster %+v, single %+v", p, i, got.Results[i], wantRes[i])
		}
	}
	if gotStats := got.Stats.Values(); gotStats != wantStats {
		t.Fatalf("%v: cluster stats %v != single-scanner stats %v", p, gotStats, wantStats)
	}
}

// TestClusterMatchesSingleScanner is the core identity property: a
// 3-worker cluster merge is byte-identical — results, order, attempts,
// stats — to one scanner scanning everything.
func TestClusterMatchesSingleScanner(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	for _, p := range proto.All {
		wantRes, wantStats := baseline(w, targets, p)
		pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, ShardSize: 128})
		got, err := pool.Run(context.Background(), targets, p)
		if err != nil {
			t.Fatalf("%v: cluster run: %v", p, err)
		}
		if got.Shards < 5 {
			t.Fatalf("%v: expected a real shard fan-out, got %d shards", p, got.Shards)
		}
		assertIdentical(t, p, got, wantRes, wantStats)
	}
}

// TestPoolScanDoesNotMutateCallerSlice pins the scanner.Prober rule for
// the pool: consumers pass shared target lists (with duplicates) uncopied,
// so dedup, shuffle and partitioning must all work on the pool's own copy.
func TestPoolScanDoesNotMutateCallerSlice(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	before := append([]ipaddr.Addr(nil), targets...)
	pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, ShardSize: 128})
	if _, err := pool.ScanContext(context.Background(), targets, proto.ICMP); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(targets, before) {
		t.Fatal("pool scan reordered or rewrote the caller's target slice")
	}
}

// TestKillWorkerMidShard kills one of three workers partway through a
// shard and checks the lease is reassigned and the merged outcome is
// still byte-identical to the single-scanner baseline.
func TestKillWorkerMidShard(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	p := proto.TCP443
	wantRes, wantStats := baseline(w, targets, p)

	pool := NewLocalPool(3, w.Link(), Config{
		Secret:             testSecret,
		ShardSize:          128,
		LeaseTimeout:       2 * time.Second,
		WorkerFailureLimit: 2,
	})
	// Worker 1 dies after its first heartbeat batch of every shard it is
	// ever leased, until the coordinator retires it. Its batch is shrunk
	// below the shard size so the crash lands mid-shard, with real probes
	// already sent for the doomed lease.
	var kills atomic.Int64
	crasher := pool.workers[1].(*LocalWorker)
	crasher.batch = 64
	crasher.failHook = func(done int) error {
		if done > 0 {
			kills.Add(1)
			return errors.New("simulated worker crash")
		}
		return nil
	}

	got, err := pool.Run(context.Background(), targets, p)
	if err != nil {
		t.Fatalf("cluster run with crashing worker: %v", err)
	}
	if kills.Load() == 0 {
		t.Fatal("kill hook never fired; test exercised nothing")
	}
	if got.Reassigned == 0 {
		t.Fatal("crashed worker's shards were never reassigned")
	}
	assertIdentical(t, p, got, wantRes, wantStats)
}

// hangWorker hangs on its first lease until the lease is revoked, then
// behaves like a normal local worker — the "hung, not crashed" failure
// mode lease deadlines exist for.
type hangWorker struct {
	inner *LocalWorker
	hung  atomic.Bool
}

func (h *hangWorker) ID() string { return h.inner.ID() }

func (h *hangWorker) RunShard(ctx context.Context, job Job, shard Shard, beat func(int)) (*ShardResult, error) {
	if h.hung.CompareAndSwap(false, true) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return h.inner.RunShard(ctx, job, shard, beat)
}

// TestHungWorkerLeaseExpires checks that a worker that stops heartbeating
// loses its lease, the shard completes elsewhere, and the merge is still
// identical.
func TestHungWorkerLeaseExpires(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	p := proto.ICMP
	wantRes, wantStats := baseline(w, targets, p)

	mk := func(id string) *LocalWorker {
		return NewLocalWorker(id, scanner.New(w.Link(), scanner.WithSecret(testSecret)))
	}
	workers := []Worker{mk("w0"), &hangWorker{inner: mk("w1")}, mk("w2")}
	coord := NewCoordinator(Config{
		Secret:       testSecret,
		ShardSize:    128,
		LeaseTimeout: 150 * time.Millisecond,
	})
	got, err := coord.Run(context.Background(), workers, targets, p)
	if err != nil {
		t.Fatalf("cluster run with hung worker: %v", err)
	}
	if got.Reassigned == 0 {
		t.Fatal("hung worker's lease was never reassigned")
	}
	assertIdentical(t, p, got, wantRes, wantStats)
}

// gateWorker counts concurrent RunShard calls across the pool.
type gateWorker struct {
	inner   *LocalWorker
	cur     *atomic.Int64
	maxSeen *atomic.Int64
}

func (g *gateWorker) ID() string { return g.inner.ID() }

func (g *gateWorker) RunShard(ctx context.Context, job Job, shard Shard, beat func(int)) (*ShardResult, error) {
	n := g.cur.Add(1)
	for {
		m := g.maxSeen.Load()
		if n <= m || g.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	defer g.cur.Add(-1)
	time.Sleep(time.Millisecond)
	return g.inner.RunShard(ctx, job, shard, beat)
}

// TestMaxInflightBoundsLeases checks the backpressure bound: with
// MaxInflight 2 and four willing workers, at most two shards are ever
// leased at once.
func TestMaxInflightBoundsLeases(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	var cur, maxSeen atomic.Int64
	workers := make([]Worker, 4)
	for i := range workers {
		workers[i] = &gateWorker{
			inner:   NewLocalWorker(workerName(i), scanner.New(w.Link(), scanner.WithSecret(testSecret))),
			cur:     &cur,
			maxSeen: &maxSeen,
		}
	}
	coord := NewCoordinator(Config{Secret: testSecret, ShardSize: 64, MaxInflight: 2})
	if _, err := coord.Run(context.Background(), workers, targets, proto.ICMP); err != nil {
		t.Fatal(err)
	}
	if m := maxSeen.Load(); m > 2 {
		t.Fatalf("saw %d concurrent leased shards, MaxInflight is 2", m)
	}
}

// TestAllWorkersFailingErrors: when every worker keeps dying the run must
// fail with an error instead of spinning.
func TestAllWorkersFailingErrors(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret, WorkerFailureLimit: 2})
	for _, wk := range pool.workers {
		wk.(*LocalWorker).failHook = func(int) error { return errors.New("dead on arrival") }
	}
	if _, err := pool.Run(context.Background(), targets, proto.ICMP); err == nil {
		t.Fatal("run with all workers failing returned nil error")
	}
}

// TestRunContextCancellation: cancelling the run context aborts promptly.
func TestRunContextCancellation(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret})
	if _, err := pool.Run(ctx, targets, proto.ICMP); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPartitionIsOrderIndependent: shard membership must depend only on
// the address, never on input order.
func TestPartitionIsOrderIndependent(t *testing.T) {
	targets := testTargets(t, clusterWorld(t))
	targets = ipaddr.Dedup(targets)
	a := Partition(targets, 100)
	rev := make([]ipaddr.Addr, len(targets))
	for i, x := range targets {
		rev[len(targets)-1-i] = x
	}
	b := Partition(rev, 100)
	if len(a) != len(b) {
		t.Fatalf("shard counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		as := ipaddr.NewSet(a[i].Targets...)
		bs := ipaddr.NewSet(b[i].Targets...)
		if as.Len() != bs.Len() || as.Diff(bs).Len() != 0 {
			t.Fatalf("shard %d membership differs under input reordering", i)
		}
	}
}

// TestPoolTelemetry: the coordinator must publish the inflight gauge and
// per-worker counters/pps through the registry.
func TestPoolTelemetry(t *testing.T) {
	w := clusterWorld(t)
	reg := telemetry.NewRegistry()
	pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret, ShardSize: 128, Telemetry: reg})
	if _, err := pool.Run(context.Background(), testTargets(t, w), proto.ICMP); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.shards.completed"] == 0 {
		t.Error("cluster.shards.completed never incremented")
	}
	if snap.Counters["cluster.shards.leased"] < snap.Counters["cluster.shards.completed"] {
		t.Error("leased counter below completed counter")
	}
	if _, ok := snap.Gauges["cluster.shards.inflight"]; !ok {
		t.Error("cluster.shards.inflight gauge missing")
	}
	if snap.Counters["cluster.worker.w0.shards_completed"]+snap.Counters["cluster.worker.w1.shards_completed"] == 0 {
		t.Error("per-worker shard counters missing")
	}
	if _, ok := snap.Gauges["cluster.worker.w0.pps"]; !ok {
		t.Error("cluster.worker.w0.pps gauge missing")
	}
}

// TestConcurrentPoolRuns: one pool must serve concurrent scans (the
// experiment grids do exactly this) without races or cross-talk.
func TestConcurrentPoolRuns(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, ShardSize: 128})
	want := make(map[proto.Protocol][]scanner.Result)
	for _, p := range proto.All {
		want[p], _ = baseline(w, targets, p)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(proto.All))
	for _, p := range proto.All {
		wg.Add(1)
		go func(p proto.Protocol) {
			defer wg.Done()
			res, err := pool.ScanContext(context.Background(), targets, p)
			if err != nil {
				errs <- err
				return
			}
			for i := range res {
				if res[i] != want[p][i] {
					errs <- errors.New(p.String() + ": concurrent run diverged from baseline")
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
