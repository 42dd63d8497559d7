package probe

import (
	"bytes"
	"testing"

	"seedscan/internal/ipaddr"
)

// rewriteCases builds one well-formed packet per transport the scanner
// emits.
func rewriteCases(t *testing.T) map[string][]byte {
	t.Helper()
	src := ipaddr.MustParse("2001:db8::1")
	dst := ipaddr.MustParse("2001:db8:ffff::2")
	qname, err := EncodeName("example.com")
	if err != nil {
		t.Fatal(err)
	}
	dns := AppendDNSQueryWire(nil, src, dst, 4444, 99, qname)
	return map[string][]byte{
		"icmp-echo": AppendEchoRequest(nil, src, dst, 7, 1, []byte("ping")),
		"tcp-syn":   AppendTCPSyn(nil, src, dst, 5555, 443, 0xdeadbeef),
		"udp-dns":   dns,
	}
}

// TestRewriteKeepsChecksumsValid is the core contract of the rotator
// middleware: after rewriting either address, the packet still parses with
// a valid transport checksum and carries the new address.
func TestRewriteKeepsChecksumsValid(t *testing.T) {
	newSrc := ipaddr.MustParse("2001:db8:aaaa::99")
	newDst := ipaddr.MustParse("2001:db8:bbbb::42")
	for name, orig := range rewriteCases(t) {
		pkt := append([]byte(nil), orig...)
		if err := RewriteSrc(pkt, newSrc); err != nil {
			t.Fatalf("%s: RewriteSrc: %v", name, err)
		}
		p, err := Parse(pkt)
		if err != nil {
			t.Fatalf("%s: parse after RewriteSrc: %v", name, err)
		}
		if p.Header.Src != newSrc {
			t.Fatalf("%s: src = %v, want %v", name, p.Header.Src, newSrc)
		}

		if err := RewriteDst(pkt, newDst); err != nil {
			t.Fatalf("%s: RewriteDst: %v", name, err)
		}
		p, err = Parse(pkt)
		if err != nil {
			t.Fatalf("%s: parse after RewriteDst: %v", name, err)
		}
		if p.Header.Dst != newDst {
			t.Fatalf("%s: dst = %v, want %v", name, p.Header.Dst, newDst)
		}
	}
}

// TestRewriteRoundTripsBytes pins that rewriting an address away and back
// restores the original packet bit-for-bit — the NAT-return invariant the
// rotator relies on for replies.
func TestRewriteRoundTripsBytes(t *testing.T) {
	tmp := ipaddr.MustParse("2001:db8:aaaa::99")
	for name, orig := range rewriteCases(t) {
		pkt := append([]byte(nil), orig...)
		origSrc, _ := Parse(pkt)
		if err := RewriteSrc(pkt, tmp); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(pkt, orig) {
			t.Fatalf("%s: rewrite to a new src changed nothing", name)
		}
		if err := RewriteSrc(pkt, origSrc.Header.Src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkt, orig) {
			t.Fatalf("%s: round-trip rewrite did not restore the packet", name)
		}
	}
}

// TestRewriteRejectsMalformed covers the error paths: short packets and
// non-IPv6 bytes must be refused, not corrupted.
func TestRewriteRejectsMalformed(t *testing.T) {
	a := ipaddr.MustParse("2001:db8::1")
	if err := RewriteSrc(make([]byte, 39), a); err != ErrTruncated {
		t.Fatalf("short packet: err = %v, want ErrTruncated", err)
	}
	v4 := make([]byte, 40)
	v4[0] = 4 << 4
	if err := RewriteSrc(v4, a); err != errBadVersion {
		t.Fatalf("v4 packet: err = %v, want ErrBadVersion", err)
	}
}
