// Package probe implements the wire formats exchanged between the scanner
// and the simulated IPv6 Internet: IPv6 headers, ICMPv6 Echo and Destination
// Unreachable, TCP SYN/SYN-ACK/RST segments, and minimal DNS-over-UDP
// messages. Packets are real byte-encoded IPv6 datagrams with valid
// checksums; only the link they travel over is in-process.
//
// The scanner builds probes with the Build* functions and validates
// responses with Parse; the world does the reverse. Layout follows RFC 8200
// (IPv6), RFC 4443 (ICMPv6), RFC 9293 (TCP), RFC 768 (UDP), and RFC 1035
// (DNS).
package probe

import (
	"encoding/binary"
	"errors"
	"fmt"

	"seedscan/internal/ipaddr"
)

// IPv6HeaderLen is the fixed IPv6 header size in bytes.
const IPv6HeaderLen = 40

// Next-header protocol numbers.
const (
	protoTCP    = 6
	protoUDP    = 17
	protoICMPv6 = 58
)

// defaultHopLimit is the hop limit stamped on generated packets.
const defaultHopLimit = 64

// Header is a decoded IPv6 fixed header.
type Header struct {
	payloadLen uint16
	nextHeader uint8
	hopLimit   uint8
	Src, Dst   ipaddr.Addr
}

// ErrTruncated reports a packet shorter than its headers claim.
var ErrTruncated = errors.New("probe: truncated packet")

// errBadVersion reports a non-IPv6 version field.
var errBadVersion = errors.New("probe: not an IPv6 packet")

// errBadChecksum reports a failed transport checksum verification.
var errBadChecksum = errors.New("probe: bad checksum")

// grow extends buf by n bytes and returns the grown slice together with
// the new region. It is the allocation seam shared by the Append*
// builders: appending into a reused scratch buffer builds a packet with no
// per-packet allocation once the buffer has warmed up.
//
// The reused region is NOT zeroed — every Append* builder writes each byte
// of its packet, including reserved fields (the TCP urgent pointer, the
// DNS count words), precisely so this hot-path memclr can be skipped.
func grow(buf []byte, n int) (full, pkt []byte) {
	off := len(buf)
	if cap(buf)-off < n {
		nbuf := make([]byte, off+n, (off+n)*2)
		copy(nbuf, buf)
		return nbuf, nbuf[off:]
	}
	buf = buf[:off+n]
	return buf, buf[off:]
}

// putIPv6Header writes a 40-byte IPv6 header into b. The header is five
// 64-bit stores: version/class/flow + length + next + hop packed into one
// word, then the two address halves each — this is scanner hot-path code.
func putIPv6Header(b []byte, src, dst ipaddr.Addr, next uint8, payloadLen int) {
	_ = b[39]
	binary.BigEndian.PutUint64(b[0:8],
		6<<60|uint64(uint16(payloadLen))<<16|uint64(next)<<8|defaultHopLimit)
	binary.BigEndian.PutUint64(b[8:16], src.Hi())
	binary.BigEndian.PutUint64(b[16:24], src.Lo())
	binary.BigEndian.PutUint64(b[24:32], dst.Hi())
	binary.BigEndian.PutUint64(b[32:40], dst.Lo())
}

// parseIPv6Header decodes the fixed header into h and returns the payload.
func parseIPv6Header(h *Header, pkt []byte) ([]byte, error) {
	if len(pkt) < IPv6HeaderLen {
		return nil, ErrTruncated
	}
	if pkt[0]>>4 != 6 {
		return nil, errBadVersion
	}
	h.payloadLen = binary.BigEndian.Uint16(pkt[4:6])
	h.nextHeader = pkt[6]
	h.hopLimit = pkt[7]
	h.Src = ipaddr.AddrFrom64s(binary.BigEndian.Uint64(pkt[8:16]), binary.BigEndian.Uint64(pkt[16:24]))
	h.Dst = ipaddr.AddrFrom64s(binary.BigEndian.Uint64(pkt[24:32]), binary.BigEndian.Uint64(pkt[32:40]))
	payload := pkt[IPv6HeaderLen:]
	if len(payload) < int(h.payloadLen) {
		return nil, ErrTruncated
	}
	return payload[:h.payloadLen], nil
}

// checksum computes the Internet checksum over the IPv6 pseudo-header plus
// the transport payload, per RFC 8200 §8.1.
//
// Per RFC 1071 §2(B) the 16-bit one's-complement sum may be computed over
// wider words and folded, so the pseudo-header addresses are summed as
// their native uint64 halves and the payload eight bytes at a time —
// roughly 5x faster than a 16-bit loop on the probe-build hot path. Each
// 64-bit word is pre-folded to 33 bits before accumulating so the running
// sum cannot overflow for any packet size dealt with here.
func checksum(src, dst ipaddr.Addr, next uint8, payload []byte) uint16 {
	sum := uint64(len(payload)) + uint64(next)
	sum += src.Hi()>>32 + src.Hi()&0xffffffff
	sum += src.Lo()>>32 + src.Lo()&0xffffffff
	sum += dst.Hi()>>32 + dst.Hi()&0xffffffff
	sum += dst.Lo()>>32 + dst.Lo()&0xffffffff
	p := payload
	for len(p) >= 8 {
		w := binary.BigEndian.Uint64(p)
		sum += w>>32 + w&0xffffffff
		p = p[8:]
	}
	if len(p) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(p))
		p = p[4:]
	}
	if len(p) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(p))
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint64(p[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// verifyChecksum checks the transport checksum of l4 against the stored
// 16-bit field at offset at, summing l4 in place with that field masked to
// zero. The mask replaces the per-packet "copy l4 and zero the field" the
// parsers used to do — the world's reply path parses millions of probes per
// second, and that copy was its dominant allocation.
func verifyChecksum(src, dst ipaddr.Addr, next uint8, l4 []byte, at int) bool {
	want := binary.BigEndian.Uint16(l4[at : at+2])
	sum := uint64(len(l4)) + uint64(next)
	sum += src.Hi()>>32 + src.Hi()&0xffffffff
	sum += src.Lo()>>32 + src.Lo()&0xffffffff
	sum += dst.Hi()>>32 + dst.Hi()&0xffffffff
	sum += dst.Lo()>>32 + dst.Lo()&0xffffffff
	p := l4
	off := 0
	for len(p) >= 8 {
		w := binary.BigEndian.Uint64(p)
		if at >= off && at < off+8 {
			w &^= uint64(0xffff) << (48 - 8*uint(at-off))
		}
		sum += w>>32 + w&0xffffffff
		p = p[8:]
		off += 8
	}
	if len(p) >= 4 {
		w := uint64(binary.BigEndian.Uint32(p))
		if at >= off && at < off+4 {
			w &^= uint64(0xffff) << (16 - 8*uint(at-off))
		}
		sum += w
		p = p[4:]
		off += 4
	}
	if len(p) >= 2 {
		w := uint64(binary.BigEndian.Uint16(p))
		if at == off {
			w = 0
		}
		sum += w
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint64(p[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum) == want
}

// Kind identifies the decoded packet type.
type Kind uint8

const (
	KindUnknown Kind = iota
	KindEchoRequest
	KindEchoReply
	KindUnreachable
	KindTCPSyn
	KindTCPSynAck
	KindTCPRst
	KindDNSQuery
	KindDNSResponse
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEchoRequest:
		return "EchoRequest"
	case KindEchoReply:
		return "EchoReply"
	case KindUnreachable:
		return "Unreachable"
	case KindTCPSyn:
		return "TCPSyn"
	case KindTCPSynAck:
		return "TCPSynAck"
	case KindTCPRst:
		return "TCPRst"
	case KindDNSQuery:
		return "DNSQuery"
	case KindDNSResponse:
		return "DNSResponse"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Packet is the decoded form of any probe or response.
type Packet struct {
	Header Header
	Kind   Kind

	// ICMP echo fields.
	EchoID, EchoSeq uint16
	Payload         []byte // echo payload or DNS question name bytes

	// Unreachable: code per RFC 4443 §3.1.
	unreachCode uint8

	// TCP fields.
	SrcPort, DstPort uint16
	TCPSeq, TCPAck   uint32

	// DNS fields.
	DNSID uint16
}

// Parse decodes an IPv6 packet into a Packet, verifying transport
// checksums. The decoders fill one Packet in place, so a probe is copied
// once, into the result, however many layers it passes.
func Parse(pkt []byte) (Packet, error) {
	var p Packet
	payload, err := parseIPv6Header(&p.Header, pkt)
	if err == nil {
		switch p.Header.nextHeader {
		case protoICMPv6:
			err = parseICMP(&p, payload)
		case protoTCP:
			err = parseTCP(&p, payload)
		case protoUDP:
			err = parseUDP(&p, payload)
		default:
			err = fmt.Errorf("probe: unsupported next header %d", p.Header.nextHeader)
		}
	}
	if err != nil {
		return Packet{}, err
	}
	return p, nil
}
