package probe

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"seedscan/internal/ipaddr"
)

var (
	srcA = ipaddr.MustParse("2001:db8::100")
	dstA = ipaddr.MustParse("2600:9000::1")
)

func TestEchoRequestRoundTrip(t *testing.T) {
	payload := []byte("cookie-0123456789")
	pkt := AppendEchoRequest(nil, srcA, dstA, 0x1234, 7, payload)
	p, err := Parse(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindEchoRequest {
		t.Fatalf("Kind = %v", p.Kind)
	}
	if p.Header.Src != srcA || p.Header.Dst != dstA {
		t.Fatal("addresses wrong")
	}
	if p.EchoID != 0x1234 || p.EchoSeq != 7 {
		t.Fatalf("id/seq = %x/%d", p.EchoID, p.EchoSeq)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q", p.Payload)
	}
	if p.Header.hopLimit != defaultHopLimit {
		t.Fatalf("hop limit = %d", p.Header.hopLimit)
	}
}

func TestEchoReplyMatchesRequest(t *testing.T) {
	req := AppendEchoRequest(nil, srcA, dstA, 42, 1, []byte("xyz"))
	rp, err := Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	reply := AppendEchoReply(nil, dstA, srcA, rp.EchoID, rp.EchoSeq, rp.Payload)
	p, err := Parse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindEchoReply || p.EchoID != 42 || p.EchoSeq != 1 || !bytes.Equal(p.Payload, []byte("xyz")) {
		t.Fatalf("reply mismatch: %+v", p)
	}
}

func TestUnreachableQuotesInvokingPacket(t *testing.T) {
	req := AppendEchoRequest(nil, srcA, dstA, 1, 1, []byte("pad-pad-pad-pad-pad"))
	un := appendUnreachable(nil, dstA, srcA, UnreachAddr, req)
	p, err := Parse(un)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindUnreachable || p.unreachCode != UnreachAddr {
		t.Fatalf("kind/code = %v/%d", p.Kind, p.unreachCode)
	}
	if len(p.Payload) != IPv6HeaderLen+8 {
		t.Fatalf("quote length = %d", len(p.Payload))
	}
	if !bytes.Equal(p.Payload, req[:IPv6HeaderLen+8]) {
		t.Fatal("quote content wrong")
	}
}

func TestTCPSynSynAckRst(t *testing.T) {
	syn := AppendTCPSyn(nil, srcA, dstA, 50000, 443, 0xdeadbeef)
	p, err := Parse(syn)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindTCPSyn || p.SrcPort != 50000 || p.DstPort != 443 || p.TCPSeq != 0xdeadbeef {
		t.Fatalf("syn = %+v", p)
	}

	synack := AppendTCPSynAck(nil, dstA, srcA, 443, 50000, 99, p.TCPSeq+1)
	q, err := Parse(synack)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != KindTCPSynAck || q.TCPAck != 0xdeadbeef+1 {
		t.Fatalf("synack = %+v", q)
	}

	rst := appendTCPRst(nil, dstA, srcA, 443, 50000, 0, p.TCPSeq+1)
	r, err := Parse(rst)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindTCPRst {
		t.Fatalf("rst kind = %v", r.Kind)
	}
}

func TestDNSQueryResponseRoundTrip(t *testing.T) {
	qname, err := EncodeName("probe.seedscan.example")
	if err != nil {
		t.Fatal(err)
	}
	q := AppendDNSQueryWire(nil, srcA, dstA, 55555, 0xbeef, qname)
	p, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindDNSQuery || p.DNSID != 0xbeef || p.SrcPort != 55555 || p.DstPort != 53 {
		t.Fatalf("query = %+v", p)
	}
	name, _, err := decodeName(p.Payload)
	if err != nil || name != "probe.seedscan.example" {
		t.Fatalf("name = %q, %v", name, err)
	}

	resp := appendDNSResponse(nil, dstA, srcA, p.SrcPort, p.DNSID, p.Payload)
	r, err := Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindDNSResponse || r.DNSID != 0xbeef || r.DstPort != 55555 || r.SrcPort != 53 {
		t.Fatalf("response = %+v", r)
	}
}

func TestBadDNSNames(t *testing.T) {
	long := make([]byte, 70)
	for i := range long {
		long[i] = 'a'
	}
	for _, n := range []string{"", string(long), "a..b"} {
		if _, err := EncodeName(n); err == nil {
			t.Errorf("EncodeName(%q) succeeded", n)
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	pkt := AppendEchoRequest(nil, srcA, dstA, 1, 1, []byte("payload"))

	// Truncated.
	if _, err := Parse(pkt[:20]); err == nil {
		t.Error("truncated packet accepted")
	}
	// Bad version.
	bad := append([]byte(nil), pkt...)
	bad[0] = 4 << 4
	if _, err := Parse(bad); err == nil {
		t.Error("IPv4 version accepted")
	}
	// Flipped payload byte breaks checksum.
	bad = append([]byte(nil), pkt...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Parse(bad); err != errBadChecksum {
		t.Errorf("corrupted packet: err = %v, want ErrBadChecksum", err)
	}
	// Unknown next header.
	bad = append([]byte(nil), pkt...)
	bad[6] = 99
	if _, err := Parse(bad); err == nil {
		t.Error("unknown next header accepted")
	}
}

func TestChecksumBitFlipDetection(t *testing.T) {
	// The Internet checksum detects all single-bit errors in the L4 bytes.
	if err := quick.Check(func(hi, lo uint64, bitIdx uint16) bool {
		dst := ipaddr.AddrFrom64s(hi|1, lo) // avoid ::
		pkt := AppendTCPSyn(nil, srcA, dst, 1234, 80, 0xabcdef01)
		i := IPv6HeaderLen + int(bitIdx)%(len(pkt)-IPv6HeaderLen)
		pkt[i] ^= 1 << (bitIdx % 8)
		_, err := Parse(pkt)
		return err == errBadChecksum
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNameErrors(t *testing.T) {
	cases := [][]byte{
		{},       // empty
		{5, 'a'}, // truncated label
		{64},     // oversized label
		{1, 'a'}, // missing terminator
	}
	for _, c := range cases {
		if _, _, err := decodeName(c); err == nil {
			t.Errorf("DecodeName(%v) succeeded", c)
		}
	}
}

func TestParseBuildFuzzRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, id, seq uint16, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		dst := ipaddr.AddrFrom64s(hi, lo)
		pkt := AppendEchoRequest(nil, srcA, dst, id, seq, payload)
		p, err := Parse(pkt)
		if err != nil {
			return false
		}
		return p.Kind == KindEchoRequest && p.EchoID == id && p.EchoSeq == seq &&
			bytes.Equal(p.Payload, payload) && p.Header.Dst == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendEchoRequest(b *testing.B) {
	payload := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AppendEchoRequest(nil, srcA, dstA, uint16(i), uint16(i>>16), payload)
	}
}

func BenchmarkParseTCP(b *testing.B) {
	pkt := AppendTCPSynAck(nil, dstA, srcA, 443, 50000, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeName converts wire-format labels back to dotted form, returning the
// name and the number of bytes consumed. Compression pointers are not
// supported (our messages never use them).
func decodeName(b []byte) (string, int, error) {
	var parts []string
	i := 0
	for {
		if i >= len(b) {
			return "", 0, errBadName
		}
		l := int(b[i])
		if l == 0 {
			i++
			break
		}
		if l > 63 || i+1+l > len(b) {
			return "", 0, errBadName
		}
		parts = append(parts, string(b[i+1:i+1+l]))
		i += 1 + l
	}
	return strings.Join(parts, "."), i, nil
}
