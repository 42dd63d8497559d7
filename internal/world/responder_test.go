package world

import (
	"bytes"
	"math/rand"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var scannerAddr = ipaddr.MustParse("2001:4860:4860::8888")

// handleOne answers one probe as a batch of one: nil when the world stays
// silent, else the single reply.
func handleOne(w *World, pkt []byte) [][]byte {
	var rb probe.ReplyBuf
	w.HandleBatch([][]byte{pkt}, &rb)
	if r := rb.Reply(0); r != nil {
		return [][]byte{r}
	}
	return nil
}

// findActive samples an address active on p at the current epoch.
func findActive(t *testing.T, w *World, p proto.Protocol) ipaddr.Addr {
	t.Helper()
	s := w.NewSampler(uint64(p) + 100)
	addrs := s.ActiveHosts(50, p)
	for _, a := range addrs {
		if w.ActiveOn(a, p, w.Epoch()) {
			r, _ := w.RegionOf(a)
			if r.RespRate == 1 {
				return a
			}
		}
	}
	t.Fatalf("no active host found for %v", p)
	return ipaddr.Addr{}
}

func TestEchoReplyFromActiveHost(t *testing.T) {
	w := smallWorld(t)
	dst := findActive(t, w, proto.ICMP)
	payload := []byte("cookie-abcdef")
	pkt := probe.BuildEchoRequest(scannerAddr, dst, 77, 3, payload)
	replies := handleOne(w, pkt)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	p, err := probe.Parse(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != probe.KindEchoReply {
		t.Fatalf("kind = %v", p.Kind)
	}
	if p.Header.Src != dst || p.Header.Dst != scannerAddr {
		t.Fatal("reply addressing wrong")
	}
	if p.EchoID != 77 || p.EchoSeq != 3 || !bytes.Equal(p.Payload, payload) {
		t.Fatal("echo fields not mirrored")
	}
}

func TestSilenceForDeadAddress(t *testing.T) {
	w := smallWorld(t)
	// Unrouted address: always silence.
	pkt := probe.BuildEchoRequest(scannerAddr, ipaddr.MustParse("3fff::1"), 1, 1, nil)
	if got := handleOne(w, pkt); got != nil {
		t.Fatalf("unrouted address replied: %d packets", len(got))
	}
}

func TestSynAckFromOpenPort(t *testing.T) {
	w := smallWorld(t)
	dst := findActive(t, w, proto.TCP443)
	cookie := uint32(0xfeedface)
	pkt := probe.BuildTCPSyn(scannerAddr, dst, 54321, 443, cookie)
	replies := handleOne(w, pkt)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	p, err := probe.Parse(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != probe.KindTCPSynAck {
		t.Fatalf("kind = %v", p.Kind)
	}
	if p.TCPAck != cookie+1 {
		t.Fatalf("ack = %x, want %x", p.TCPAck, cookie+1)
	}
	if p.SrcPort != 443 || p.DstPort != 54321 {
		t.Fatal("ports not mirrored")
	}
}

func TestClosedPortMayRST(t *testing.T) {
	w := smallWorld(t)
	// Find a host that exists, is not TCP80-active, and whose region RSTs.
	s := w.NewSampler(11)
	var found bool
	for _, a := range s.Hosts(4000) {
		r, _ := w.RegionOf(a)
		if r.Aliased || w.ActiveOn(a, proto.TCP80, CollectEpoch) {
			continue
		}
		if !w.ExistsAt(a, CollectEpoch) {
			continue
		}
		pkt := probe.BuildTCPSyn(scannerAddr, a, 54321, 80, 1)
		replies := handleOne(w, pkt)
		if len(replies) == 1 {
			p, err := probe.Parse(replies[0])
			if err != nil {
				t.Fatal(err)
			}
			if p.Kind == probe.KindTCPRst {
				found = true
				break
			}
			if p.Kind == probe.KindTCPSynAck {
				t.Fatal("closed port answered SYN-ACK")
			}
		}
	}
	if !found {
		t.Fatal("no RST observed from any closed port")
	}
}

func TestDNSResponseFromResolver(t *testing.T) {
	w := smallWorld(t)
	dst := findActive(t, w, proto.UDP53)
	q, err := probe.BuildDNSQuery(scannerAddr, dst, 40000, 0xaa55, "x.seedscan.invalid")
	if err != nil {
		t.Fatal(err)
	}
	replies := handleOne(w, q)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	p, err := probe.Parse(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != probe.KindDNSResponse || p.DNSID != 0xaa55 || p.DstPort != 40000 {
		t.Fatalf("response = %+v", p)
	}
}

func TestUnreachableFromRouter(t *testing.T) {
	w := smallWorld(t)
	// Find a region with SendsUnreach > 0 and probe nonexistent addresses
	// until an unreachable arrives.
	rng := newTestRand(13)
	var got bool
	for _, r := range w.Regions() {
		if r.Aliased || r.SendsUnreach == 0 {
			continue
		}
		for i := 0; i < 200 && !got; i++ {
			a := r.Template.Random(rng)
			if w.ExistsAt(a, CollectEpoch) {
				continue
			}
			pkt := probe.BuildEchoRequest(scannerAddr, a, 9, 9, nil)
			replies := handleOne(w, pkt)
			if len(replies) == 1 {
				p, err := probe.Parse(replies[0])
				if err != nil {
					t.Fatal(err)
				}
				if p.Kind != probe.KindUnreachable {
					t.Fatalf("dead addr answered %v", p.Kind)
				}
				if p.Header.Src != r.RouterAddr() {
					t.Fatalf("unreachable from %v, want router %v", p.Header.Src, r.RouterAddr())
				}
				got = true
			}
		}
		if got {
			break
		}
	}
	if !got {
		t.Fatal("no unreachable observed")
	}
}

func TestAliasedSlabAnswersRandomAddresses(t *testing.T) {
	w := smallWorld(t)
	var aliased *Region
	for _, r := range w.Regions() {
		if r.Aliased && r.RespRate == 1 {
			aliased = r
			break
		}
	}
	if aliased == nil {
		t.Skip("no full-rate aliased region")
	}
	rng := newTestRand(17)
	for i := 0; i < 20; i++ {
		a := aliased.Prefix.RandomWithin(rng)
		pkt := probe.BuildEchoRequest(scannerAddr, a, 5, uint16(i), nil)
		if len(handleOne(w, pkt)) != 1 {
			t.Fatalf("aliased %v did not answer", a)
		}
	}
}

func TestRateLimitedRegionDropsMostProbes(t *testing.T) {
	w := smallWorld(t)
	var rl *Region
	for _, r := range w.Regions() {
		if r.Aliased && r.RespRate < 0.5 {
			rl = r
			break
		}
	}
	if rl == nil {
		t.Skip("no rate-limited aliased region in this seed")
	}
	rng := newTestRand(19)
	answered := 0
	const n = 400
	for i := 0; i < n; i++ {
		a := rl.Prefix.RandomWithin(rng)
		pkt := probe.BuildEchoRequest(scannerAddr, a, 1, uint16(i), nil)
		answered += len(handleOne(w, pkt))
	}
	frac := float64(answered) / n
	if frac < rl.RespRate-0.1 || frac > rl.RespRate+0.1 {
		t.Fatalf("rate-limited answer fraction %.3f, want ~%.2f", frac, rl.RespRate)
	}
}

func TestRetriesRerollLoss(t *testing.T) {
	w := New(Config{Seed: 42, NumASes: 60, LossRate: 0.5})
	w.SetEpoch(CollectEpoch)
	dst := findActive(t, w, proto.ICMP)
	// With 50% loss, some seq values must be answered and some dropped.
	var ok, drop int
	for seq := 0; seq < 64; seq++ {
		pkt := probe.BuildEchoRequest(scannerAddr, dst, 1, uint16(seq), nil)
		if len(handleOne(w, pkt)) == 1 {
			ok++
		} else {
			drop++
		}
	}
	if ok == 0 || drop == 0 {
		t.Fatalf("loss not rerolled across retries: ok=%d drop=%d", ok, drop)
	}
	// Same seq is deterministic.
	pkt := probe.BuildEchoRequest(scannerAddr, dst, 1, 7, nil)
	first := len(handleOne(w, pkt))
	for i := 0; i < 5; i++ {
		if len(handleOne(w, pkt)) != first {
			t.Fatal("same probe gave different outcomes")
		}
	}
}

func TestMalformedPacketsSilentlyDropped(t *testing.T) {
	w := smallWorld(t)
	if handleOne(w, []byte{1, 2, 3}) != nil {
		t.Fatal("garbage packet answered")
	}
	pkt := probe.BuildEchoRequest(scannerAddr, findActive(t, w, proto.ICMP), 1, 1, nil)
	pkt[len(pkt)-1] ^= 0xff // break checksum
	if handleOne(w, pkt) != nil {
		t.Fatal("corrupt packet answered")
	}
}

// BenchmarkHandleBatchEcho answers one 1024-probe echo batch per iteration
// into a reused arena, the way a scanner worker drives the world.
func BenchmarkHandleBatchEcho(b *testing.B) {
	w := New(Config{Seed: 42, NumASes: 60, LossRate: 0})
	s := w.NewSampler(1)
	addrs := s.Hosts(1024)
	if len(addrs) < 1024 {
		b.Fatalf("sampled %d", len(addrs))
	}
	pkts := make([][]byte, len(addrs))
	for i, a := range addrs {
		pkts[i] = probe.BuildEchoRequest(scannerAddr, a, uint16(i), 0, []byte("cookiecookie"))
	}
	var rb probe.ReplyBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.HandleBatch(pkts, &rb)
	}
}
