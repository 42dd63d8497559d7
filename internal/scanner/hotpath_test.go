package scanner

import (
	"context"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/world"
)

// statsEqual compares two merged snapshots field by field.
func statsEqual(t *testing.T, got, want *Stats) {
	t.Helper()
	checks := []struct {
		name      string
		got, want int64
	}{
		{"PacketsSent", got.PacketsSent.Load(), want.PacketsSent.Load()},
		{"PacketsRecv", got.PacketsRecv.Load(), want.PacketsRecv.Load()},
		{"Hits", got.Hits.Load(), want.Hits.Load()},
		{"RSTs", got.RSTs.Load(), want.RSTs.Load()},
		{"Unreachables", got.Unreachables.Load(), want.Unreachables.Load()},
		{"Blocked", got.Blocked.Load(), want.Blocked.Load()},
		{"InvalidCookie", got.InvalidCookie.Load(), want.InvalidCookie.Load()},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("stats %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestChunkSizeDoesNotChangeResults sweeps chunk sizes around the target
// count so tail chunks, chunk==1 (one packet per exchange), and
// chunk>len(targets) are all covered: results, counters and the virtual
// clock must match for every protocol, on a lossy world so retries run.
func TestChunkSizeDoesNotChangeResults(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0.1})
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(29)
	targets := samp.Hosts(130)

	for _, p := range proto.All {
		ref := New(w.Link(), WithSecret(8), WithProbeChunk(1))
		want := ref.Scan(targets, p)
		for _, chunk := range []int{2, 7, 64, 129, 130, 1000} {
			s := New(w.Link(), WithSecret(8), WithProbeChunk(chunk))
			got := s.Scan(targets, p)
			if len(got) != len(want) {
				t.Fatalf("%v chunk %d: %d results, want %d", p, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v chunk %d: result %d differs", p, chunk, i)
				}
			}
			statsEqual(t, s.Stats(), ref.Stats())
			if got, want := s.VirtualElapsed(), ref.VirtualElapsed(); got != want {
				t.Fatalf("%v chunk %d: virtual elapsed %v vs %v", p, chunk, got, want)
			}
		}
	}
}

// TestConcurrentScansSharedScanner runs several ScanContext calls on one
// Scanner under -race: each scan's results must match a sequential
// reference, and the sharded stats must merge to the sum of all scans.
func TestConcurrentScansSharedScanner(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(37)
	hosts := samp.Hosts(800)

	const scans = 4
	sets := make([][]ipaddr.Addr, scans)
	for i := range sets {
		sets[i] = hosts[i*200 : (i+1)*200]
	}

	// Sequential reference on a fresh scanner per set (classification is a
	// pure function of target, cookie, and link, so results must agree).
	refs := make([][]Result, scans)
	var wantSent, wantHits int64
	for i, set := range sets {
		ref := New(w.Link(), WithSecret(13))
		refs[i] = ref.Scan(set, proto.ICMP)
		wantSent += ref.Stats().PacketsSent.Load()
		wantHits += ref.Stats().Hits.Load()
	}

	shared := New(w.Link(), WithSecret(13))
	var wg sync.WaitGroup
	got := make([][]Result, scans)
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = shared.ScanContext(context.Background(), sets[i], proto.ICMP)
		}(i)
	}
	wg.Wait()

	for i := range refs {
		if len(got[i]) != len(refs[i]) {
			t.Fatalf("scan %d: %d results, want %d", i, len(got[i]), len(refs[i]))
		}
		for j := range refs[i] {
			if got[i][j] != refs[i][j] {
				t.Fatalf("scan %d: result %d differs under concurrency", i, j)
			}
		}
	}
	if got := shared.Stats().PacketsSent.Load(); got != wantSent {
		t.Errorf("merged PacketsSent = %d, want %d", got, wantSent)
	}
	if got := shared.Stats().Hits.Load(); got != wantHits {
		t.Errorf("merged Hits = %d, want %d", got, wantHits)
	}
}

// TestBatchedCancelReturnsProbedPrefix pins the partial-results invariant
// for the chunked claim loop: on cancellation the returned slice is
// exactly the fully-probed claimed prefix, in scan order.
func TestBatchedCancelReturnsProbedPrefix(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	var targets []ipaddr.Addr
	base := ipaddr.MustParse("3fff::")
	for i := 0; i < 2000; i++ {
		targets = append(targets, base.AddLo(uint64(i)))
	}
	link, started, release := gatedLink(w.Link())
	// WithoutShuffle so scan order == deduped input order and the prefix
	// can be checked against the caller's slice.
	s := New(link, WithSecret(5), WithWorkers(2), WithoutShuffle())

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
	if len(res) == 0 || len(res) >= len(targets) {
		t.Fatalf("probed prefix = %d of %d, want partial", len(res), len(targets))
	}
	for i, r := range res {
		if r.Addr != targets[i] {
			t.Fatalf("result %d out of scan order: %v != %v", i, r.Addr, targets[i])
		}
		if r.Attempts == 0 && r.Status != StatusBlocked {
			t.Fatalf("unprobed result returned at %d: %+v", i, r)
		}
	}
}

// TestVirtualSecondsPerScanAttribution is the regression test for the
// virtual_seconds mis-attribution bug: two concurrent scans on one
// Scanner used to each absorb the other's packets via the shared
// rate-limiter delta. Each scan must observe exactly its own
// packet-count × gap.
func TestVirtualSecondsPerScanAttribution(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	reg := telemetry.NewRegistry()
	s := New(w.Link(), WithSecret(5), WithRatePPS(1000), WithTelemetry(reg))

	// Two scans of 100 silent targets × 3 attempts = 300 packets each:
	// 0.3 virtual seconds per scan at 1000 pps, whatever the interleaving.
	mk := func(off uint64) []ipaddr.Addr {
		var ts []ipaddr.Addr
		base := ipaddr.MustParse("3fff::").AddLo(off)
		for i := 0; i < 100; i++ {
			ts = append(ts, base.AddLo(uint64(i)))
		}
		return ts
	}
	var wg sync.WaitGroup
	for _, off := range []uint64{0, 1 << 20} {
		wg.Add(1)
		go func(off uint64) {
			defer wg.Done()
			s.Scan(mk(off), proto.ICMP)
		}(off)
	}
	wg.Wait()

	h := reg.Snapshot().Histograms["scanner.scan.virtual_seconds"]
	if h.Count != 2 {
		t.Fatalf("observations = %d, want 2", h.Count)
	}
	if h.Min < 0.29 || h.Max > 0.31 {
		t.Fatalf("per-scan virtual seconds [%v, %v], want both ~0.3", h.Min, h.Max)
	}
	if got := s.VirtualElapsed(); got < 0.59 || got > 0.61 {
		t.Fatalf("total virtual elapsed = %v, want ~0.6", got)
	}
}

// TestRateLimiterTakeN pins the amortized limiter: TakeN(n) must advance
// the clock exactly as n sequential Takes do and return the first slot.
func TestRateLimiterTakeN(t *testing.T) {
	rl := NewRateLimiter(100)
	if got := rl.TakeN(5); got != 0 {
		t.Fatalf("first TakeN start = %v, want 0", got)
	}
	if got := rl.Take(); got < 0.0499 || got > 0.0501 {
		t.Fatalf("Take after TakeN(5) = %v, want 0.05", got)
	}
	if got, want := rl.Packets(), int64(6); got != want {
		t.Fatalf("Packets = %d, want %d", got, want)
	}
	if got := rl.VirtualElapsed(); got < 0.0599 || got > 0.0601 {
		t.Fatalf("VirtualElapsed = %v, want 0.06", got)
	}
}

// TestRateLimiterConcurrentTake hammers the lock-free limiter from many
// goroutines under -race: the final clock must account every packet
// exactly once.
func TestRateLimiterConcurrentTake(t *testing.T) {
	rl := NewRateLimiter(1000)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%10 == 0 {
					rl.TakeN(3)
				} else {
					rl.Take()
				}
			}
		}()
	}
	wg.Wait()
	// Per goroutine: 100 TakeN(3) + 900 Take = 1200 packets.
	if got, want := rl.Packets(), int64(goroutines*1200); got != want {
		t.Fatalf("Packets = %d, want %d", got, want)
	}
}
