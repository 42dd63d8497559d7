package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

func TestWireCodecRoundTrips(t *testing.T) {
	job := Job{Proto: proto.UDP53, Secret: 0xdeadbeefcafe, Retries: 2, RatePPS: 10000, HeartbeatEvery: 250 * time.Millisecond,
		Chain: "taps; faults loss=0.05,dup=0.01,delay=0,seed=11"}
	got, err := decodeJob(encodeJob(job))
	if err != nil {
		t.Fatal(err)
	}
	if got != job {
		t.Fatalf("job round-trip: %+v != %+v", got, job)
	}

	sh := Shard{ID: 42, Targets: []ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("fe80::dead:beef"),
	}}
	gsh, err := decodeShard(encodeShard(sh))
	if err != nil {
		t.Fatal(err)
	}
	if gsh.ID != sh.ID || len(gsh.Targets) != len(sh.Targets) {
		t.Fatalf("shard round-trip: %+v != %+v", gsh, sh)
	}
	for i := range sh.Targets {
		if gsh.Targets[i] != sh.Targets[i] {
			t.Fatalf("shard target %d: %v != %v", i, gsh.Targets[i], sh.Targets[i])
		}
	}

	stats := scanner.StatsFromValues([7]int64{10, 9, 8, 7, 6, 5, 4})
	res := &ShardResult{
		Shard: 42,
		Results: []scanner.Result{
			{Addr: sh.Targets[0], Proto: proto.UDP53, Status: scanner.StatusActive, Attempts: 1},
			{Addr: sh.Targets[1], Proto: proto.UDP53, Status: scanner.StatusSilent, Attempts: 3},
		},
		Stats:       stats,
		WallSeconds: 1.25,
	}
	gres, err := decodeResult(encodeResult(res), proto.UDP53, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Shard != res.Shard || gres.WallSeconds != res.WallSeconds {
		t.Fatalf("result round-trip header: %+v", gres)
	}
	for i := range res.Results {
		if gres.Results[i] != res.Results[i] {
			t.Fatalf("result %d: %+v != %+v", i, gres.Results[i], res.Results[i])
		}
	}
	if gres.Stats.Values() != stats.Values() {
		t.Fatalf("stats round-trip: %v != %v", gres.Stats.Values(), stats.Values())
	}

	id, err := decodeHello(encodeHello("probe-host-7"))
	if err != nil || id != "probe-host-7" {
		t.Fatalf("hello round-trip: %q, %v", id, err)
	}
}

func TestWireRejectsVersionMismatch(t *testing.T) {
	// Version 1 workers re-planned their shards, version 2 workers probe
	// without the job's chain, and version 4 does not exist yet.
	for _, v := range []uint16{1, 2, 4} {
		b := encodeHello("x")
		binary.BigEndian.PutUint16(b[4:6], v)
		if _, err := decodeHello(b); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d accepted: %v", v, err)
		}
	}
	b := encodeHello("x")
	copy(b[:4], "NOPE")
	if _, err := decodeHello(b); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

// TestJobRejectsNonCanonicalChain: a job frame carries its chain as the
// canonical text of a wire.ChainConfig and nothing else, so both ends
// provably build the same chain.
func TestJobRejectsNonCanonicalChain(t *testing.T) {
	for _, chain := range []string{
		"faults loss=0.05",                            // seed and zero keys left out
		"taps;faults loss=0.05,dup=0,delay=0,seed=1",  // spacing
		"faults loss=0.05,dup=0,delay=0,seed=1; taps", // order
		"faults loss=2,dup=0,delay=0,seed=1",          // out of range
		"telescope",
	} {
		if _, err := decodeJob(encodeJob(Job{Chain: chain})); err == nil {
			t.Errorf("job chain %q accepted", chain)
		}
	}
}

// startWorker serves the wire protocol on a loopback listener, exactly as
// `seedscan worker` does.
func startWorker(t *testing.T, ctx context.Context, cfg ServeConfig) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(ctx, ln, cfg)
	return ln.Addr().String()
}

// slowDone is a lease context slow to hand out its Done channel, so the
// lease watcher reaches its select late, as on a busy scheduler.
type slowDone struct{ context.Context }

func (c slowDone) Done() <-chan struct{} {
	time.Sleep(time.Millisecond)
	return c.Context.Done()
}

// TestLeaseCancelSparesNextShard drives one remote worker the way the
// coordinator does — every lease is cancelled once its shard is done —
// and every next shard on the connection must still succeed. A lease
// watcher outliving its RunShard would poke the next shard's read.
func TestLeaseCancelSparesNextShard(t *testing.T) {
	w := clusterWorld(t)
	targets := ipaddr.Dedup(testTargets(t, w))[:8]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rw, err := DialWorker(startWorker(t, ctx, ServeConfig{Link: w.Link()}))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	cfg := Config{Secret: testSecret}
	cfg.fillDefaults(1)
	job := cfg.job(proto.ICMP)
	for i := 0; i < 100; i++ {
		lctx, lcancel := context.WithCancel(ctx)
		_, err := rw.RunShard(slowDone{lctx}, job, Shard{ID: i, Targets: targets}, func(int) {})
		lcancel()
		if err != nil {
			t.Fatalf("shard %d after %d cancelled leases: %v", i, i, err)
		}
	}
}

// TestTCPClusterMatchesSingleScanner runs the full wire protocol over
// loopback TCP: two worker servers, remote workers, coordinator — and the
// merge must still be byte-identical to the single-scanner baseline.
func TestTCPClusterMatchesSingleScanner(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	p := proto.TCP80
	wantRes, wantStats := baseline(w.Link(), targets, p)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers []Worker
	for i := 0; i < 2; i++ {
		addr := startWorker(t, ctx, ServeConfig{WorkerID: "tw" + string(rune('0'+i)), Link: w.Link()})
		rw, err := DialWorker(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		workers = append(workers, rw)
	}

	coord := NewCoordinator(Config{Secret: testSecret, ShardSize: 200})
	got, err := coord.Run(ctx, workers, targets, p)
	if err != nil {
		t.Fatalf("TCP cluster run: %v", err)
	}
	assertIdentical(t, p, got, wantRes, wantStats)

	// Worker IDs surface with their dial address for distinguishability.
	for id := range got.Workers {
		if !strings.Contains(id, "@127.0.0.1:") {
			t.Errorf("worker id %q lacks address suffix", id)
		}
	}
}

// TestTCPWorkerCrashRecovers kills one worker's listener process
// mid-run; the coordinator must finish identically on the survivor.
func TestTCPWorkerCrashRecovers(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	p := proto.ICMP
	wantRes, wantStats := baseline(w.Link(), targets, p)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The doomed worker gets its own server context we can kill.
	dctx, die := context.WithCancel(ctx)
	doomedAddr := startWorker(t, dctx, ServeConfig{WorkerID: "doomed", Link: w.Link()})
	survivorAddr := startWorker(t, ctx, ServeConfig{WorkerID: "survivor", Link: w.Link()})

	doomed, err := DialWorker(doomedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	survivor, err := DialWorker(survivorAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	// Kill the doomed worker's server once the run is underway.
	go func() {
		time.Sleep(20 * time.Millisecond)
		die()
	}()

	coord := NewCoordinator(Config{
		Secret:             testSecret,
		ShardSize:          64,
		LeaseTimeout:       time.Second,
		WorkerFailureLimit: 2,
	})
	got, err := coord.Run(ctx, []Worker{doomed, survivor}, targets, p)
	if err != nil {
		t.Fatalf("TCP cluster run with crashed worker: %v", err)
	}
	assertIdentical(t, p, got, wantRes, wantStats)
}

// TestRemoteWorkerMatchesAtRetryBounds scans silent targets, which use
// every retry, with retry counts outside what a scanner makes: a TCP
// worker and a local pool must both match the single scanner. The Job
// carries the clamped count, and Attempts fits the result frame's byte.
func TestRemoteWorkerMatchesAtRetryBounds(t *testing.T) {
	w := clusterWorld(t)
	base := ipaddr.MustParse("2001:db8:dead::")
	targets := []ipaddr.Addr{base, base.AddLo(1), base.AddLo(2)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, r := range []int{-1, 300} {
		wantRes, wantStats := baseline(w.Link(), targets, proto.ICMP, scanner.WithRetries(r))
		rw, err := DialWorker(startWorker(t, ctx, ServeConfig{Link: w.Link()}))
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		cfg := Config{Secret: testSecret, Retries: r}
		got, err := NewCoordinator(cfg).Run(ctx, []Worker{rw}, targets, proto.ICMP)
		if err != nil {
			t.Fatalf("retries %d: TCP run: %v", r, err)
		}
		assertIdentical(t, fmt.Sprintf("retries %d/tcp", r), got, wantRes, wantStats)
		got, err = NewLocalPool(2, w.Link(), cfg).Run(ctx, targets, proto.ICMP)
		if err != nil {
			t.Fatalf("retries %d: local run: %v", r, err)
		}
		assertIdentical(t, fmt.Sprintf("retries %d/local", r), got, wantRes, wantStats)
	}
}
