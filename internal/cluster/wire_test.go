package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
)

func TestWireCodecRoundTrips(t *testing.T) {
	job := Job{Proto: proto.UDP53, Secret: 0xdeadbeefcafe, Retries: 2, RatePPS: 10000, HeartbeatEvery: 250 * time.Millisecond}
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
	gres, err := decodeResult(encodeResult(res), proto.UDP53)
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
	// Version 1 workers re-planned their shards; 3 does not exist yet.
	for _, v := range []uint16{1, wireVersion + 1} {
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

// startWorker serves the wire protocol on a loopback listener backed by
// link, exactly as `seedscan worker` does.
func startWorker(t *testing.T, ctx context.Context, link wire.Link, id string, opts ...scanner.Option) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{
		WorkerID: id,
		NewScanner: func(job Job) (*scanner.Scanner, error) {
			return scanner.New(link, append(slices.Clone(opts),
				scanner.WithSecret(job.Secret),
				scanner.WithRetries(job.Retries),
				scanner.WithRatePPS(job.RatePPS))...), nil
		},
	}
	go Serve(ctx, ln, cfg)
	return ln.Addr().String()
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
		addr := startWorker(t, ctx, w.Link(), "tw"+string(rune('0'+i)))
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
	doomedAddr := startWorker(t, dctx, w.Link(), "doomed")
	survivorAddr := startWorker(t, ctx, w.Link(), "survivor")

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
