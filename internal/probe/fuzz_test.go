package probe

import (
	"testing"

	"seedscan/internal/ipaddr"
)

// FuzzParse guards the world's network interface: Parse consumes raw bytes
// straight off the (simulated) wire and must never panic or accept a
// packet whose framing lies about its size. The seed corpus covers every
// packet kind both builders emit, plus truncations of each.
func FuzzParse(f *testing.F) {
	src := ipaddr.MustParse("2001:db8::1")
	dst := ipaddr.MustParse("2001:db8::2")
	echo := AppendEchoRequest(nil, src, dst, 0x1234, 7, []byte("cookie78"))
	seeds := [][]byte{
		echo,
		AppendEchoReply(nil, dst, src, 0x1234, 7, []byte("cookie78")),
		AppendTCPSyn(nil, src, dst, 0xc123, 443, 0xdeadbeef),
		AppendTCPSynAck(nil, dst, src, 443, 0xc123, 0x22334455, 0xdeadbec0),
		appendTCPRst(nil, dst, src, 443, 0xc123, 0, 0xdeadbec0),
		appendUnreachable(nil, dst, src, UnreachAddr, echo),
	}
	if name, err := EncodeName("liveness.seedscan.example"); err == nil {
		seeds = append(seeds, AppendDNSQueryWire(nil, src, dst, 0xc123, 0x4242, name))
		seeds = append(seeds, appendDNSResponse(nil, dst, src, 0xc123, 0x4242, name))
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])      // truncated tail
		f.Add(s[:IPv6HeaderLen]) // headers only
		f.Add(append([]byte{}, s[:8]...))
		corrupt := append([]byte{}, s...)
		corrupt[len(corrupt)-1] ^= 0xff // breaks the transport checksum
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pkt []byte) {
		p, err := Parse(pkt)
		if err != nil {
			return
		}
		// Accepted packets must be at least a full IPv6 header declaring
		// version 6, and every parsed slice must point inside the input.
		if len(pkt) < IPv6HeaderLen || pkt[0]>>4 != 6 {
			t.Fatalf("accepted invalid framing: len=%d %x", len(pkt), pkt)
		}
		if int(p.Header.payloadLen) > len(pkt)-IPv6HeaderLen {
			t.Fatalf("payload length %d exceeds packet body %d", p.Header.payloadLen, len(pkt)-IPv6HeaderLen)
		}
		if len(p.Payload) > int(p.Header.payloadLen) {
			t.Fatalf("parsed payload %d exceeds declared %d", len(p.Payload), p.Header.payloadLen)
		}
	})
}
