package scanner

import (
	"context"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// TestScanDoesNotMutateCallerSlice is the regression test for the in-place
// dedup/shuffle bug: Scan used to reorder shared seed/candidate lists
// between runs.
func TestScanDoesNotMutateCallerSlice(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(31)
	targets := samp.Hosts(200)
	// Plant duplicates so dedup has work to do.
	targets = append(targets, targets[0], targets[1])
	before := append([]ipaddr.Addr(nil), targets...)

	s := New(w.Link(), WithSecret(41))
	s.Scan(targets, proto.ICMP)

	if len(targets) != len(before) {
		t.Fatalf("caller slice resized: %d -> %d", len(before), len(targets))
	}
	for i := range before {
		if targets[i] != before[i] {
			t.Fatalf("caller slice mutated at %d: %v != %v", i, targets[i], before[i])
		}
	}
}

// TestWithRetriesZeroProbesOnce: zero retries means one packet per silent
// target. Counts outside 0..254 clamp to the nearer edge: -1 scans like 0,
// and 300 like 254, whose 255 attempts still fit Result.Attempts.
func TestWithRetriesZeroProbesOnce(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	var targets []ipaddr.Addr
	base := ipaddr.MustParse("3fff::")
	for i := 0; i < 50; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	scan := func(retries int) ([]Result, *Stats) {
		s := New(w.Link(), WithSecret(5), WithRetries(retries))
		return s.Scan(targets, proto.ICMP), s.Stats()
	}
	for _, c := range []struct{ retries, like, attempts int }{
		{0, 0, 1}, {-1, 0, 1}, {254, 254, 255}, {300, 254, 255},
	} {
		res, stats := scan(c.retries)
		for _, r := range res {
			if int(r.Attempts) != c.attempts {
				t.Fatalf("retries %d: attempts = %d, want %d", c.retries, r.Attempts, c.attempts)
			}
		}
		if got, want := stats.PacketsSent.Load(), int64(c.attempts*len(targets)); got != want {
			t.Fatalf("retries %d: packets = %d, want %d", c.retries, got, want)
		}
		if likeRes, likeStats := scan(c.like); !slices.Equal(res, likeRes) || stats.Values() != likeStats.Values() {
			t.Fatalf("retries %d scans unlike retries %d", c.retries, c.like)
		}
	}
}

// gatedLink holds every exchange over inner until release is closed, and
// closes started on the first one, so a scan can be caught mid-flight
// deterministically.
func gatedLink(inner wire.Link) (link wire.LinkFunc, started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	link = func(pkts [][]byte, rb *probe.ReplyBuf) {
		once.Do(func() { close(started) })
		<-release
		inner.ExchangeBatchInto(pkts, rb)
	}
	return link, started, release
}

func TestScanContextCancellationMidScan(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	var targets []ipaddr.Addr
	base := ipaddr.MustParse("3fff::")
	for i := 0; i < 500; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	link, started, release := gatedLink(w.Link())
	s := New(link, WithSecret(5), WithWorkers(2))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res []Result
	var err error
	go func() {
		res, err = s.ScanContext(ctx, targets, proto.ICMP)
		close(done)
	}()
	<-started
	cancel()
	close(release)
	<-done

	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) >= len(targets) {
		t.Fatalf("scan did not stop early: %d results of %d targets", len(res), len(targets))
	}
	// Returned results must be fully probed ones.
	for _, r := range res {
		if r.Attempts == 0 {
			t.Fatalf("unprobed result returned: %+v", r)
		}
	}
}

func TestScanContextPreCancelled(t *testing.T) {
	w := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(w.Link(), WithSecret(5))
	res, err := s.ScanContext(ctx, []ipaddr.Addr{ipaddr.MustParse("3fff::1")}, proto.ICMP)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("results = %d, want 0", len(res))
	}
	if s.Stats().PacketsSent.Load() != 0 {
		t.Fatal("pre-cancelled scan sent packets")
	}
}

func TestScannerTelemetryCounters(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(23)
	var targets []ipaddr.Addr
	for _, a := range samp.ActiveHosts(40, proto.ICMP) {
		r, _ := w.RegionOf(a)
		if r.RespRate == 1 {
			targets = append(targets, a)
		}
	}
	reg := telemetry.NewRegistry()
	s := New(w.Link(), WithSecret(5), WithTelemetry(reg))
	s.Scan(targets, proto.ICMP)

	snap := reg.Snapshot()
	if got := snap.Counters["scanner.probes_sent.ICMP"]; got != s.Stats().PacketsSent.Load() {
		t.Fatalf("probes_sent = %d, stats = %d", got, s.Stats().PacketsSent.Load())
	}
	if got := snap.Counters["scanner.hits.ICMP"]; got != int64(len(targets)) {
		t.Fatalf("hits = %d, want %d", got, len(targets))
	}
	h := snap.Histograms["scanner.scan.virtual_seconds"]
	if h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("virtual_seconds = %+v", h)
	}
	if snap.Histograms["scanner.scan.wall_seconds"].Count != 1 {
		t.Fatal("wall_seconds not recorded")
	}
	if snap.Gauges["scanner.ratelimit.virtual_elapsed_seconds"] != s.VirtualElapsed() {
		t.Fatal("rate-limit gauge mismatch")
	}
}
