// Package wire_test pins the wire layer's behavioral contracts end to
// end: an empty chain is byte-identical to the bare link, middlewares are
// transparent or deterministically faulty exactly as documented, and the
// same chain composes unchanged under a local scanner, a sharded
// in-process cluster, and TCP workers.
package wire_test

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

const testSecret = 0xfeed5eed

func testWorld(t testing.TB) (*world.World, []ipaddr.Addr) {
	t.Helper()
	w := world.New(world.Config{Seed: 21, NumASes: 40, LossRate: 0})
	samp := w.NewSampler(11)
	targets := samp.Hosts(1500)
	if len(targets) < 1000 {
		t.Fatalf("only %d targets", len(targets))
	}
	// Salt in unrouted addresses so silent/retry paths are exercised too.
	base := ipaddr.MustParse("2001:db8:dead::")
	for i := 0; i < 200; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	w.SetEpoch(world.ScanEpoch)
	return w, targets
}

// scanThrough runs one scan through link and returns results + stats.
func scanThrough(link wire.Link, targets []ipaddr.Addr, p proto.Protocol) ([]scanner.Result, [7]int64) {
	s := scanner.New(link, scanner.WithSecret(testSecret))
	res := s.Scan(targets, p)
	return res, s.Stats().Values()
}

// TestEmptyChainIsBareLink pins the zero-overhead guarantee twice over:
// Chain with no middlewares returns the base link itself, and a scan
// through it is result- and counter-identical to the unchained link.
func TestEmptyChainIsBareLink(t *testing.T) {
	w, targets := testWorld(t)
	base := w.Link()
	if got := wire.Chain(base); got != wire.Link(base) {
		t.Fatal("empty Chain did not return the base link itself")
	}
	for _, p := range proto.All {
		bare, bareStats := scanThrough(w.Link(), targets, p)
		chained, chainStats := scanThrough(wire.Chain(w.Link()), targets, p)
		if !reflect.DeepEqual(bare, chained) {
			t.Fatalf("%s: empty chain changed scan results", p)
		}
		if bareStats != chainStats {
			t.Fatalf("%s: empty chain changed stats: %v vs %v", p, bareStats, chainStats)
		}
	}
}

// TestTapTransparencyAndCounts runs a tapped scan concurrently from
// several goroutines (meaningful under -race): results must be unchanged
// and the tap's totals must equal the scanners' own packet counters.
func TestTapTransparencyAndCounts(t *testing.T) {
	w, targets := testWorld(t)
	want, _ := scanThrough(w.Link(), targets, proto.ICMP)

	var mu sync.Mutex
	perPkt, perReply := 0, 0
	tap := wire.NewTap(func(pkt, reply []byte) {
		mu.Lock()
		perPkt++
		if reply != nil {
			perReply++
		}
		mu.Unlock()
		if len(pkt) < probe.IPv6HeaderLen {
			t.Error("tap saw a runt probe")
		}
	})
	// A count-only tap built with the registry wraps the callback tap,
	// so both see every pair.
	reg := telemetry.NewRegistry()
	link := wire.ChainConfig{Taps: true}.Build(wire.Chain(w.Link(), tap), reg)

	const goroutines = 8
	var wg sync.WaitGroup
	var sent, recv int64
	var smu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, stats := scanThrough(link, targets, proto.ICMP)
			if !reflect.DeepEqual(want, res) {
				t.Error("tapped scan diverges from bare scan")
			}
			smu.Lock()
			sent += stats[0]
			recv += stats[1]
			smu.Unlock()
		}()
	}
	wg.Wait()

	if tap.Probes() != sent {
		t.Fatalf("tap probes = %d, scanners sent %d", tap.Probes(), sent)
	}
	mu.Lock()
	if int64(perPkt) != sent {
		t.Fatalf("tap fn fired %d times, want one per probe (%d)", perPkt, sent)
	}
	if int64(perReply) != recv {
		t.Fatalf("tap fn saw %d replies, want %d", perReply, recv)
	}
	mu.Unlock()
	snap := reg.Snapshot()
	if got := snap.Counters["wire.tap.probes"]; got != sent {
		t.Fatalf("wire.tap.probes = %d, want %d", got, sent)
	}
	if got := snap.Counters["wire.tap.replies"]; got != recv {
		t.Fatalf("wire.tap.replies = %d, want %d", got, recv)
	}
}

// TestFaultsDeterministic pins seeded reproducibility: the same seed
// yields bit-identical scan outcomes run after run, a different seed
// yields different ones, and the loss knob actually loses probes.
func TestFaultsDeterministic(t *testing.T) {
	w, targets := testWorld(t)
	run := func(seed uint64) ([]scanner.Result, [7]int64, map[string]int64) {
		f := wire.ChainConfig{Faults: wire.FaultsConfig{Seed: seed, Loss: 0.3, Dupe: 0.1, Delay: 0.05}}
		reg := telemetry.NewRegistry()
		res, stats := scanThrough(f.Build(w.Link(), reg), targets, proto.ICMP)
		return res, stats, reg.Snapshot().Counters
	}
	resA, statsA, cA := run(1)
	resB, statsB, cB := run(1)
	if !reflect.DeepEqual(resA, resB) || statsA != statsB {
		t.Fatal("same-seed faulted scans diverge")
	}
	if !reflect.DeepEqual(cA, cB) {
		t.Fatalf("same-seed fault counters diverge: %v vs %v", cA, cB)
	}
	if cA["wire.faults.dropped"] == 0 || cA["wire.faults.duplicated"] == 0 || cA["wire.faults.delayed"] == 0 {
		t.Fatalf("faults injected nothing of some kind: %v", cA)
	}
	resC, _, _ := run(2)
	if reflect.DeepEqual(resA, resC) {
		t.Fatal("different fault seeds produced identical scans")
	}
	// A faulted scan must actually differ from the clean one.
	clean, _ := scanThrough(w.Link(), targets, proto.ICMP)
	if reflect.DeepEqual(clean, resA) {
		t.Fatal("30% loss left the scan untouched")
	}
}

// TestMiddlewareOrder pins Chain's composition order: mws[0] is
// outermost, so a tap outside the fault injector counts every probe the
// scanner sent, while a tap inside it counts only the survivors.
func TestMiddlewareOrder(t *testing.T) {
	w, targets := testWorld(t)
	faults := func() *wire.Faults {
		return wire.NewFaults(wire.FaultsConfig{Seed: 9, Loss: 0.5})
	}

	outer := wire.NewTap(nil)
	_, stats := scanThrough(wire.Chain(w.Link(), outer, faults()), targets, proto.ICMP)
	if outer.Probes() != stats[0] {
		t.Fatalf("outer tap probes = %d, want all %d sent", outer.Probes(), stats[0])
	}

	inner := wire.NewTap(nil)
	f := faults()
	_, stats2 := scanThrough(wire.Chain(w.Link(), f, inner), targets, proto.ICMP)
	want := stats2[0] - f.Dropped() + f.Duplicated()
	if inner.Probes() != want {
		t.Fatalf("inner tap probes = %d, want %d (sent %d - dropped %d + duplicated %d)",
			inner.Probes(), want, stats2[0], f.Dropped(), f.Duplicated())
	}
	if inner.Probes() >= stats2[0] {
		t.Fatalf("inner tap saw %d probes, not fewer than the %d sent", inner.Probes(), stats2[0])
	}
}

// TestSourceRotatorTransparent pins the NAT invariant: rotation is
// invisible to the scanner (identical results), while an inner tap
// observes every forwarded probe leaving from a pool address.
func TestSourceRotatorTransparent(t *testing.T) {
	w, targets := testWorld(t)
	pool := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8:feed::1"),
		ipaddr.MustParse("2001:db8:feed::2"),
		ipaddr.MustParse("2001:db8:feed::3"),
	}
	inPool := map[ipaddr.Addr]bool{}
	for _, a := range pool {
		inPool[a] = true
	}
	reg := telemetry.NewRegistry()
	rot := wire.ChainConfig{Rotate: wire.RotateConfig{Seed: 77, Pool: pool}}
	seen := map[ipaddr.Addr]int{}
	var mu sync.Mutex
	inner := wire.NewTap(func(pkt, _ []byte) {
		p, err := probe.Parse(pkt)
		if err != nil {
			t.Errorf("rotated probe unparseable: %v", err)
			return
		}
		if !inPool[p.Header.Src] {
			t.Errorf("probe left from %v, not a pool address", p.Header.Src)
		}
		mu.Lock()
		seen[p.Header.Src]++
		mu.Unlock()
	})

	for _, p := range proto.All {
		want, wantStats := scanThrough(w.Link(), targets, p)
		got, gotStats := scanThrough(rot.Build(wire.Chain(w.Link(), inner), reg), targets, p)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: rotation changed scan results", p)
		}
		if wantStats != gotStats {
			t.Fatalf("%s: rotation changed stats", p)
		}
	}
	if len(seen) != len(pool) {
		t.Fatalf("rotation used %d of %d pool addresses", len(seen), len(pool))
	}
	if reg.Snapshot().Counters["wire.rotator.rewrites"] == 0 {
		t.Fatal("rotator counted no rewrites")
	}
}

// TestShaperAccounting pins the shaper's virtual clock: transparent to
// results, counts every packet, and models elapsed time as n*gap plus
// bounded jitter.
func TestShaperAccounting(t *testing.T) {
	w, targets := testWorld(t)
	const pps = 100_000
	sh := wire.ChainConfig{Shape: wire.ShapeConfig{PPS: pps, Jitter: 0.5, Seed: 3}}
	reg := telemetry.NewRegistry()
	want, _ := scanThrough(w.Link(), targets, proto.ICMP)
	got, stats := scanThrough(sh.Build(w.Link(), reg), targets, proto.ICMP)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("shaper changed scan results")
	}
	c := reg.Snapshot().Counters
	if c["wire.shaper.packets"] != stats[0] {
		t.Fatalf("shaper packets = %d, scanner sent %d", c["wire.shaper.packets"], stats[0])
	}
	base := float64(stats[0]) / pps
	if el := float64(c["wire.shaper.virtual_ns"]) / 1e9; el < base || el > base*1.5+1 {
		t.Fatalf("virtual elapsed %.4fs outside [%.4f, %.4f]", el, base, base*1.5+1)
	}
}

// TestLocalClusterSharesChain fans a chained link across a 4-worker
// in-process pool: merged results stay byte-identical to the
// single-scanner scan over the same chain, and the shared tap accounts
// for every packet all workers sent. Run under -race this also hammers
// middleware concurrency-safety.
func TestLocalClusterSharesChain(t *testing.T) {
	w, targets := testWorld(t)
	tap := wire.NewTap(nil)
	want, _ := scanThrough(wire.Chain(w.Link(), tap), targets, proto.ICMP)
	soloProbes := tap.Probes()

	tap2 := wire.NewTap(nil)
	pool := cluster.NewLocalPool(4, w.Link(), cluster.Config{
		Secret:    testSecret,
		ShardSize: 128,
		Chain:     []wire.Middleware{tap2},
	})
	run, err := pool.Run(context.Background(), targets, proto.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, run.Results) {
		t.Fatal("clustered chained scan diverges from single scanner")
	}
	if tap2.Probes() != run.Stats.PacketsSent.Load() {
		t.Fatalf("cluster tap probes = %d, merged stats sent %d", tap2.Probes(), run.Stats.PacketsSent.Load())
	}
	if tap2.Probes() != soloProbes {
		t.Fatalf("cluster sent %d probes, solo sent %d", tap2.Probes(), soloProbes)
	}
}

// TestTCPWorkerChain runs a tapped chain over the real TCP wire protocol,
// as `seedscan scan -cluster ... -wire-taps` does: the coordinator's
// config carries the chain to the worker in the job frame, its merged
// results match the unchained baseline (taps are transparent), and the
// worker-side tap saw every packet.
func TestTCPWorkerChain(t *testing.T) {
	w, targets := testWorld(t)
	want, wantStats := scanThrough(w.Link(), targets, proto.ICMP)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := telemetry.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go cluster.Serve(ctx, ln, cluster.ServeConfig{WorkerID: "tapped", Link: w.Link(), Telemetry: reg})
	rw, err := cluster.DialWorker(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	cfg := cluster.Config{Secret: testSecret, ShardSize: 256, Wire: wire.ChainConfig{Taps: true}}
	run, err := cluster.NewCoordinator(cfg).Run(ctx, []cluster.Worker{rw}, targets, proto.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, run.Results) {
		t.Fatal("TCP chained scan diverges from bare baseline")
	}
	if got := run.Stats.Values(); got != wantStats {
		t.Fatalf("TCP chained stats %v, want %v", got, wantStats)
	}
	if got := reg.Snapshot().Counters["wire.tap.probes"]; got != wantStats[0] {
		t.Fatalf("worker tap probes = %d, want %d", got, wantStats[0])
	}
}
