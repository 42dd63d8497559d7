package world

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// batchTestPackets builds a diverse probe mix against w: every probe kind,
// routed and unrouted targets, odd ports, aliased slabs, the pathological
// AS, and malformed wire bytes.
func batchTestPackets(t *testing.T, w *World) [][]byte {
	t.Helper()
	src := ipaddr.MustParse("2001:db8::ffff")
	s := w.NewSampler(1)
	var targets []ipaddr.Addr
	targets = append(targets, s.Hosts(200)...)
	targets = append(targets, s.TemplateNoise(100)...)
	targets = append(targets, s.Aliased(40)...)
	// Unrouted space, plus the gap between the AS spine and the
	// pathological slot.
	targets = append(targets,
		ipaddr.MustParse("2001:db8::1"),
		asBase(w.cfg.NumASes+3).AddLo(1),
		asBase(w.cfg.NumASes+8).AddLo(1), // pathological AS, ::1 IID
	)
	if len(targets) < 200 {
		t.Fatalf("only %d targets sampled", len(targets))
	}
	var pkts [][]byte
	for i, dst := range targets {
		switch i % 5 {
		case 0:
			pkts = append(pkts, probe.AppendEchoRequest(nil, src, dst, uint16(i), uint16(i*3), []byte("batch-equiv")))
		case 1:
			pkts = append(pkts, probe.AppendTCPSyn(nil, src, dst, 0xc123, 80, uint32(i)*7919))
		case 2:
			pkts = append(pkts, probe.AppendTCPSyn(nil, src, dst, 0xc124, 443, uint32(i)*104729))
		case 3:
			pkts = append(pkts, probe.AppendTCPSyn(nil, src, dst, 0xc125, 8080, uint32(i))) // off-study port
		default:
			qname, err := probe.EncodeName("equiv.example")
			if err != nil {
				t.Fatalf("EncodeName: %v", err)
			}
			pkts = append(pkts, probe.AppendDNSQueryWire(nil, src, dst, 0xc321, uint16(i), qname))
		}
	}
	// Malformed packets the Internet silently drops.
	pkts = append(pkts, nil, []byte{0x60}, pkts[0][:probe.IPv6HeaderLen-1], bytes.Repeat([]byte{0xab}, 60))
	return pkts
}

// TestBatchAnswersAsBatchesOfOne pins that a batch of N answers exactly
// as N batches of 1, byte for byte — a reply depends on its probe alone,
// not on its position in the arena or on its neighbours — across epochs,
// every probe kind, routed, unrouted, aliased, pathological, and malformed
// input, on both a warm world and a cold (still lazy) one built from the
// same seed.
func TestBatchAnswersAsBatchesOfOne(t *testing.T) {
	cfg := Config{Seed: 1234, NumASes: 60}
	w := New(cfg)
	pkts := batchTestPackets(t, w)
	cold := New(cfg) // materializes only what the packets touch
	var rb probe.ReplyBuf
	for _, epoch := range []int{0, 1, 2, 5} {
		w.SetEpoch(epoch)
		cold.SetEpoch(epoch)
		cold.handleBatch(pkts, &rb)
		if rb.Len() != len(pkts) {
			t.Fatalf("epoch %d: ReplyBuf holds %d slots for %d packets", epoch, rb.Len(), len(pkts))
		}
		replies := 0
		for i, pkt := range pkts {
			want := handleOne(w, pkt)
			got := rb.Reply(i)
			switch {
			case len(want) == 0:
				if got != nil {
					t.Fatalf("epoch %d pkt %d: batch replied %x, batch of one was silent", epoch, i, got)
				}
			case got == nil:
				t.Fatalf("epoch %d pkt %d: batch silent, batch of one replied %x", epoch, i, want[0])
			default:
				replies++
				if !bytes.Equal(got, want[0]) {
					t.Fatalf("epoch %d pkt %d: batch reply differs\n got %x\nwant %x", epoch, i, got, want[0])
				}
			}
		}
		if epoch == 0 && replies < 50 {
			t.Fatalf("only %d replies at epoch 0; probe mix too silent to prove anything", replies)
		}
	}
}

// replyDigest is the SHA-256 of handleBatch's replies to
// batchTestPackets, plus echo requests to 3,000 more in-template
// addresses, on a Seed 1234, 60-AS world at epochs 0 through 4: per
// slot, its length (0 for silence) and its bytes.
const replyDigest = "da2e95c74a4ea9abbe150e78168e2824acfcff2051c717503a752c584b02dee1"

// TestReplyDigestPinned pins every reply the world gives to the mixed
// probe batch, byte for byte, from the collection epoch through the
// churn, birth and flap epochs. Answering faster must not answer
// differently: the same address exists, listens, drops, RSTs and
// unreaches as before, at every epoch. The extra in-template addresses
// are what reach the birth cohorts, which a host sample never does.
func TestReplyDigestPinned(t *testing.T) {
	w := New(Config{Seed: 1234, NumASes: 60})
	pkts := batchTestPackets(t, w)
	src := ipaddr.MustParse("2001:db8::ffff")
	for i, dst := range w.NewSampler(2).TemplateNoise(3000) {
		pkts = append(pkts, probe.AppendEchoRequest(nil, src, dst, uint16(i), uint16(i*7), []byte("digest")))
	}
	h := sha256.New()
	var rb probe.ReplyBuf
	var n [4]byte
	for epoch := 0; epoch <= 4; epoch++ {
		w.SetEpoch(epoch)
		w.handleBatch(pkts, &rb)
		for i := range pkts {
			r := rb.Reply(i)
			binary.BigEndian.PutUint32(n[:], uint32(len(r)))
			h.Write(n[:])
			h.Write(r)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != replyDigest {
		t.Fatalf("reply digest %s, want %s", got, replyDigest)
	}
}

// TestHandleBatchTelemetry checks the world.* counters wired through
// Config.Telemetry move with the batch path.
func TestHandleBatchTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := New(Config{Seed: 5, NumASes: 20, Telemetry: reg})
	pkts := batchTestPackets(t, w)
	var rb probe.ReplyBuf
	w.handleBatch(pkts, &rb)
	if got := reg.Counter("world.batches").Load(); got != 1 {
		t.Fatalf("world.batches = %d, want 1", got)
	}
	if got := reg.Counter("world.batch.packets").Load(); got != int64(len(pkts)) {
		t.Fatalf("world.batch.packets = %d, want %d", got, len(pkts))
	}
	replies := 0
	for i := range pkts {
		if rb.Reply(i) != nil {
			replies++
		}
	}
	if got := reg.Counter("world.batch.replies").Load(); got != int64(replies) {
		t.Fatalf("world.batch.replies = %d, want %d", got, replies)
	}
	if got := reg.Counter("world.groups_materialized").Load(); got == 0 {
		t.Fatal("world.groups_materialized never moved despite routed traffic")
	}
}

// TestHandleBatchConcurrentWithSetEpoch runs batched handling from many
// goroutines while the epoch clock advances — the longitudinal daemon's
// shape. Run under -race; each goroutine owns its ReplyBuf, and every
// reply must still be a valid reply for its probe's epoch window.
func TestHandleBatchConcurrentWithSetEpoch(t *testing.T) {
	w := New(Config{Seed: 77, NumASes: 30})
	pkts := batchTestPackets(t, w)
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for e := 0; ; e++ {
			select {
			case <-stop:
				return
			default:
				w.SetEpoch(e % 7)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var rb probe.ReplyBuf
			for round := 0; round < 50; round++ {
				w.handleBatch(pkts, &rb)
				for i := range pkts {
					if r := rb.Reply(i); r != nil && len(r) < probe.IPv6HeaderLen {
						t.Errorf("round %d pkt %d: truncated reply (%d bytes)", round, i, len(r))
						return
					}
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	flipper.Wait()
}

// TestLazyMaterializationConcurrent hammers a cold world from many
// goroutines mixing routing lookups, registry reads, and full
// materialization; the result must match an identically-seeded world built
// by a single goroutine. Run under -race.
func TestLazyMaterializationConcurrent(t *testing.T) {
	cfg := Config{Seed: 31, NumASes: 40}
	ref := New(cfg)
	refRegions := ref.Regions()

	w := New(cfg)
	pkts := batchTestPackets(t, ref)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				var rb probe.ReplyBuf
				w.handleBatch(pkts, &rb)
			case 1:
				if n := w.ASDB().Len(); n != cfg.NumASes+1 {
					t.Errorf("ASDB has %d entries, want %d", n, cfg.NumASes+1)
				}
			default:
				w.Regions()
			}
		}(g)
	}
	wg.Wait()

	got := w.Regions()
	if len(got) != len(refRegions) {
		t.Fatalf("concurrently materialized world has %d regions, reference %d", len(got), len(refRegions))
	}
	for i := range got {
		if got[i].String() != refRegions[i].String() || got[i].Template != refRegions[i].Template {
			t.Fatalf("region %d diverged: %v vs %v", i, got[i], refRegions[i])
		}
	}
}

// TestRegionsReturnsCopy pins the Regions contract: callers may reorder
// the returned slice without corrupting the world's canonical order.
func TestRegionsReturnsCopy(t *testing.T) {
	w := New(Config{Seed: 3, NumASes: 10})
	a := w.Regions()
	if len(a) < 2 {
		t.Fatalf("world too small: %d regions", len(a))
	}
	a[0], a[1] = a[1], a[0]
	b := w.Regions()
	if b[0] != a[1] || b[1] != a[0] {
		t.Fatal("Regions() exposed internal state: caller reorder leaked into the world")
	}
}

// TestWorldAtScale builds a 10^8-host world and drives it through the
// multi-worker cluster path. The lazy builder must keep the build flat
// (well under 2s even with every group materialized) and cluster scans
// must stay byte-identical to a lone reference scanner.
func TestWorldAtScale(t *testing.T) {
	start := time.Now()
	w := New(Config{Seed: 9, sizeScale: 100, LossRate: 0.001}) // default 500 ASes
	st := w.Stats()                                            // forces full materialization
	buildTime := time.Since(start)
	if buildTime > 2*time.Second {
		t.Fatalf("scaled world took %v to fully materialize (budget 2s)", buildTime)
	}
	if st.expectedHosts < 1e8 {
		t.Fatalf("SizeScale=100 world holds only %.3g expected hosts, want >= 1e8", st.expectedHosts)
	}

	s := w.NewSampler(2)
	targets := s.ActiveHosts(300, proto.ICMP)
	targets = append(targets, s.TemplateNoise(100)...)
	if len(targets) < 350 {
		t.Fatalf("only %d scan targets sampled", len(targets))
	}

	// The reference scanner below replicates what NewLocalPool's
	// fillDefaults hands workers: two retries at 10000 pps.
	ccfg := cluster.Config{Secret: 0xfeed}
	pool := cluster.NewLocalPool(4, w.Link(), ccfg)
	got, err := pool.ScanContext(context.Background(), targets, proto.ICMP)
	if err != nil {
		t.Fatalf("cluster scan: %v", err)
	}
	ref := scanner.New(w.Link(),
		scanner.WithSecret(ccfg.Secret),
		scanner.WithRetries(2),
		scanner.WithRatePPS(10000))
	want := ref.Scan(targets, proto.ICMP)
	if len(got) != len(want) {
		t.Fatalf("cluster returned %d results, reference %d", len(got), len(want))
	}
	hits := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged: cluster %+v, reference %+v", i, got[i], want[i])
		}
		if got[i].Active() {
			hits++
		}
	}
	if hits < len(targets)/2 {
		t.Fatalf("only %d/%d hits scanning sampled-active hosts at scale", hits, len(targets))
	}
}
