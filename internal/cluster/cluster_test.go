package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
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
func baseline(link wire.Link, targets []ipaddr.Addr, p proto.Protocol, opts ...scanner.Option) ([]scanner.Result, [7]int64) {
	s := scanner.New(link, append(slices.Clone(opts), scanner.WithSecret(testSecret))...)
	res := s.Scan(targets, p)
	return res, s.Stats().Values()
}

// testWorker is an in-process worker replicating baseline's scanner.
func testWorker(w *world.World, id string) *localWorker {
	return newLocalWorker(id, scanner.New(w.Link(), scanner.WithSecret(testSecret)))
}

func assertIdentical(t *testing.T, label any, got *RunResult, wantRes []scanner.Result, wantStats [7]int64) {
	t.Helper()
	if len(got.Results) != len(wantRes) {
		t.Fatalf("%v: cluster returned %d results, single scanner %d", label, len(got.Results), len(wantRes))
	}
	for i := range wantRes {
		if got.Results[i] != wantRes[i] {
			t.Fatalf("%v: result %d diverges: cluster %+v, single %+v", label, i, got.Results[i], wantRes[i])
		}
	}
	if gotStats := got.Stats.Values(); gotStats != wantStats {
		t.Fatalf("%v: cluster stats %v != single-scanner stats %v", label, gotStats, wantStats)
	}
}

// identityInput is testTargets (duplicates included) plus a /48 the
// returned blocklist covers, so every result status occurs.
func identityInput(t testing.TB, w *world.World) ([]ipaddr.Addr, []ipaddr.Prefix) {
	t.Helper()
	blocked := ipaddr.MustParsePrefix("2001:db8:b10c::/48")
	targets := testTargets(t, w)
	for i := 0; i < 40; i++ {
		targets = append(targets, blocked.Addr().AddLo(uint64(i)))
	}
	return targets, []ipaddr.Prefix{blocked}
}

// testChain is the benchmark's scan_sharded chain, a tap outside seeded
// loss and duplication — or, when not chained, the bare link.
func testChain(chained bool) wire.ChainConfig {
	if !chained {
		return wire.ChainConfig{}
	}
	return wire.ChainConfig{Taps: true, Faults: wire.FaultsConfig{Seed: 11, Loss: .05, Dupe: .01}}
}

// TestClusterMatchesSingleScanner is the core identity property, as one
// table: over every protocol, a bare and a faulty tapped link, any worker
// count, any shard size and a worker dying mid-run, the merged Results
// (element-wise, in order) and Stats equal the single scanner's, every
// target is accounted for under exactly one status, and the tap saw
// exactly the packets the stats claim. Every row gets its chain only from
// Config.Wire, which the pool builds over its link.
func TestClusterMatchesSingleScanner(t *testing.T) {
	w := clusterWorld(t)
	targets, blocklist := identityInput(t, w)
	opts := []scanner.Option{scanner.WithBlocklist(blocklist)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type row struct {
		name string
		run  func(p proto.Protocol, cfg Config) (*RunResult, error)
		// wasted: failed leases put probes on the wire that no recorded
		// shard's stats count.
		wasted bool
	}
	var rows []row
	for _, workers := range []int{1, 3, 8} {
		for _, size := range []int{1, 7, 2048, len(targets) + 1} {
			rows = append(rows, row{fmt.Sprintf("local%d/shard%d", workers, size),
				func(p proto.Protocol, cfg Config) (*RunResult, error) {
					cfg.shardSize = size
					return NewLocalPool(workers, w.Link(), cfg, opts...).Run(ctx, targets, p)
				}, false})
		}
	}
	rows = append(rows, row{"local3/shard128/kill", func(p proto.Protocol, cfg Config) (*RunResult, error) {
		cfg.shardSize, cfg.workerFailureLimit = 128, 2
		pool := NewLocalPool(3, w.Link(), cfg, opts...)
		crashMidShard(pool.workers[1].(*localWorker))
		got, err := pool.Run(ctx, targets, p)
		if err == nil && got.Reassigned == 0 {
			err = errors.New("crashed worker's shards were never reassigned")
		}
		return got, err
	}, true})

	for _, p := range proto.All {
		for _, chained := range []bool{false, true} {
			chain := testChain(chained)
			wantRes, wantStats := baseline(chain.Build(w.Link(), nil), targets, p, opts...)
			for _, r := range rows {
				name := fmt.Sprintf("%v/chained=%v/%s", p, chained, r.name)
				reg := telemetry.NewRegistry()
				got, err := r.run(p, Config{Secret: testSecret, Wire: chain, Telemetry: reg})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertIdentical(t, name, got, wantRes, wantStats)
				// Conservation: one status per target, one tap sighting per packet.
				var byStatus [scanner.StatusBlocked + 1]int64
				for _, res := range got.Results {
					byStatus[res.Status]++
				}
				st := got.Stats
				if byStatus[scanner.StatusActive] != st.Hits.Load() || byStatus[scanner.StatusRST] != st.RSTs.Load() ||
					byStatus[scanner.StatusUnreachable] != st.Unreachables.Load() || byStatus[scanner.StatusBlocked] != st.Blocked.Load() {
					t.Fatalf("%s: results by status %v disagree with stats %v", name, byStatus, st.Values())
				}
				if byStatus[scanner.StatusBlocked] != 40 {
					t.Fatalf("%s: %d blocked results, want the 40 blocklisted targets", name, byStatus[scanner.StatusBlocked])
				}
				tap := reg.Counter("wire.tap.probes").Load()
				if sent := st.PacketsSent.Load(); chained && (tap < sent || tap > sent && !r.wasted) {
					t.Fatalf("%s: tap saw %d probes, stats claim %d sent", name, tap, sent)
				}
			}
		}
	}
}

// crashMidShard makes a local worker die after its first heartbeat batch
// of every shard it is ever leased, until the coordinator retires it. Its
// batch is shrunk below the shard size so the crash lands mid-shard, with
// real probes already sent for the doomed lease. It returns the kill count.
func crashMidShard(w *localWorker) *atomic.Int64 {
	kills := new(atomic.Int64)
	w.batch = 64
	w.failHook = func(done int) error {
		if done > 0 {
			kills.Add(1)
			return errors.New("simulated worker crash")
		}
		return nil
	}
	return kills
}

// TestPoolScanDoesNotMutateCallerSlice pins the scanner.Prober rule for
// the pool: consumers pass shared target lists (with duplicates) uncopied,
// so dedup and shuffle must work on the pool's own copy, which its shards
// are windows of.
func TestPoolScanDoesNotMutateCallerSlice(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	before := append([]ipaddr.Addr(nil), targets...)
	pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, shardSize: 128})
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
	wantRes, wantStats := baseline(w.Link(), targets, p)

	pool := NewLocalPool(3, w.Link(), Config{
		Secret:             testSecret,
		shardSize:          128,
		leaseTimeout:       2 * time.Second,
		workerFailureLimit: 2,
	})
	kills := crashMidShard(pool.workers[1].(*localWorker))

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
	inner *localWorker
	hung  atomic.Bool
}

func (h *hangWorker) ID() string { return h.inner.ID() }

func (h *hangWorker) RunShard(ctx context.Context, p proto.Protocol, sh shard, beat func(int)) (*shardResult, error) {
	if h.hung.CompareAndSwap(false, true) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return h.inner.RunShard(ctx, p, sh, beat)
}

// TestHungWorkerLeaseExpires checks that a worker that stops heartbeating
// loses its lease, the shard completes elsewhere, and the merge is still
// identical.
func TestHungWorkerLeaseExpires(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	p := proto.ICMP
	wantRes, wantStats := baseline(w.Link(), targets, p)

	workers := []worker{testWorker(w, "w0"), &hangWorker{inner: testWorker(w, "w1")}, testWorker(w, "w2")}
	coord := newCoordinator(Config{
		Secret:       testSecret,
		shardSize:    128,
		leaseTimeout: 150 * time.Millisecond,
	})
	got, err := coord.run(context.Background(), workers, targets, p)
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
	inner   *localWorker
	cur     *atomic.Int64
	maxSeen *atomic.Int64
}

func (g *gateWorker) ID() string { return g.inner.ID() }

func (g *gateWorker) RunShard(ctx context.Context, p proto.Protocol, sh shard, beat func(int)) (*shardResult, error) {
	n := g.cur.Add(1)
	for {
		m := g.maxSeen.Load()
		if n <= m || g.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	defer g.cur.Add(-1)
	time.Sleep(time.Millisecond)
	return g.inner.RunShard(ctx, p, sh, beat)
}

// TestMaxInflightBoundsLeases checks the backpressure bound: with
// MaxInflight 2 and four willing workers, at most two shards are ever
// leased at once.
func TestMaxInflightBoundsLeases(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	var cur, maxSeen atomic.Int64
	workers := make([]worker, 4)
	for i := range workers {
		workers[i] = &gateWorker{
			inner:   testWorker(w, workerName(i)),
			cur:     &cur,
			maxSeen: &maxSeen,
		}
	}
	coord := newCoordinator(Config{Secret: testSecret, shardSize: 64, maxInflight: 2})
	if _, err := coord.run(context.Background(), workers, targets, proto.ICMP); err != nil {
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
	pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret, workerFailureLimit: 2})
	for _, wk := range pool.workers {
		wk.(*localWorker).failHook = func(int) error { return errors.New("dead on arrival") }
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

// liar is a worker that scans honestly and then corrupts its answer.
type liar struct {
	*localWorker
	lie func(*shardResult)
}

func (l liar) RunShard(ctx context.Context, p proto.Protocol, sh shard, beat func(int)) (*shardResult, error) {
	res, err := l.localWorker.RunShard(ctx, p, sh, beat)
	if err == nil {
		l.lie(res)
	}
	return res, err
}

// lies are the ways a shard result can disagree with its lease. Every
// shard of the tests below has at least two targets.
var lies = map[string]func(*shardResult){
	"wrong id":  func(r *shardResult) { r.shard++ },
	"one short": func(r *shardResult) { r.results = r.results[:len(r.results)-1] },
	"swapped":   func(r *shardResult) { r.results[0], r.results[1] = r.results[1], r.results[0] },
	"status 9":  func(r *shardResult) { r.results[len(r.results)-1].Status = 9 },
	"no stats":  func(r *shardResult) { r.stats = nil },
}

// TestLyingWorkerIsAFailedLease: an answer that is not the leased shard,
// target for target, is rejected per lease — requeued, the worker charged
// and named — and the run still converges on the single scanner's bytes.
func TestLyingWorkerIsAFailedLease(t *testing.T) {
	w := clusterWorld(t)
	targets := new(ipaddr.Deduper).Append(nil, testTargets(t, w))[:1000] // 15 shards of 64 and one of 40
	p := proto.TCP80
	wantRes, wantStats := baseline(w.Link(), targets, p)
	for name, lie := range lies {
		var logged []string
		coord := newCoordinator(Config{Secret: testSecret, shardSize: 64, Logf: func(f string, a ...any) {
			logged = append(logged, fmt.Sprintf(f, a...))
		}})
		got, err := coord.run(context.Background(), []worker{liar{testWorker(w, "liar"), lie}, testWorker(w, "honest")}, targets, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Reassigned == 0 {
			t.Fatalf("%s: no lease was reassigned", name)
		}
		if got.Workers["liar"].ShardsCompleted != 0 {
			t.Fatalf("%s: a lie was recorded: %+v", name, got.Workers)
		}
		assertIdentical(t, name, got, wantRes, wantStats)
		if len(logged) == 0 || !strings.Contains(logged[0], "shard") || !strings.Contains(logged[0], "worker liar") {
			t.Fatalf("%s: rejection not reported with worker and shard: %q", name, logged)
		}
	}
}

// TestOnlyLyingWorkersError: with nobody honest the run ends in an error —
// workers retired, or a shard out of attempts — never in a merged result.
func TestOnlyLyingWorkersError(t *testing.T) {
	w := clusterWorld(t)
	targets := new(ipaddr.Deduper).Append(nil, testTargets(t, w))[:1000]
	for name, lie := range lies {
		for _, cfg := range []Config{
			{workerFailureLimit: 2},
			{workerFailureLimit: 1000, maxShardAttempts: 2},
		} {
			cfg.Secret, cfg.shardSize = testSecret, 64
			got, err := newCoordinator(cfg).run(context.Background(),
				[]worker{liar{testWorker(w, "l0"), lie}, liar{testWorker(w, "l1"), lie}}, targets, proto.ICMP)
			if err == nil || got != nil {
				t.Fatalf("%s: liars alone produced a result (err %v)", name, err)
			}
		}
	}
}

// TestPoolTelemetry: the coordinator must publish the inflight gauge and
// per-worker counters/pps through the registry.
func TestPoolTelemetry(t *testing.T) {
	w := clusterWorld(t)
	reg := telemetry.NewRegistry()
	pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret, shardSize: 128, Telemetry: reg})
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
	pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, shardSize: 128})
	want := make(map[proto.Protocol][]scanner.Result)
	for _, p := range proto.All {
		want[p], _ = baseline(w.Link(), targets, p)
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

// TestLocalClusterSharesChain fans a chained link across a 4-worker
// in-process pool: merged results stay byte-identical to the
// single-scanner scan over the same chain, and the shared tap accounts
// for every packet all workers sent. Run under -race this also hammers
// middleware concurrency-safety.
func TestLocalClusterSharesChain(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	tap := wire.NewTap(nil)
	want, _ := baseline(wire.Chain(w.Link(), tap), targets, proto.ICMP)
	soloProbes := tap.Probes()

	tap2 := wire.NewTap(nil)
	pool := NewLocalPool(4, w.Link(), Config{
		Secret:    testSecret,
		shardSize: 128,
		Chain:     []wire.Middleware{tap2},
	})
	run, err := pool.Run(context.Background(), targets, proto.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, run.Results) {
		t.Fatal("clustered chained scan diverges from single scanner")
	}
	if tap2.Probes() != run.Stats.PacketsSent.Load() {
		t.Fatalf("cluster tap probes = %d, merged stats sent %d", tap2.Probes(), run.Stats.PacketsSent.Load())
	}
	if tap2.Probes() != soloProbes {
		t.Fatalf("cluster sent %d probes, solo sent %d", tap2.Probes(), soloProbes)
	}
}
