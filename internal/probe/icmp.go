package probe

import (
	"encoding/binary"

	"seedscan/internal/ipaddr"
)

// ICMPv6 type values (RFC 4443).
const (
	icmpTypeUnreachable = 1
	icmpTypeEchoRequest = 128
	icmpTypeEchoReply   = 129
)

// Destination Unreachable codes we model.
const (
	UnreachNoRoute      = 0
	UnreachAdminProhib  = 1
	UnreachAddr         = 3
	UnreachPort         = 4
	unreachInvokedBytes = 8 // how much of the invoking packet we quote
)

// BuildEchoRequest constructs an ICMPv6 Echo Request datagram. The payload
// typically carries the scanner's validation cookie.
func BuildEchoRequest(src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	return appendEcho(nil, icmpTypeEchoRequest, src, dst, id, seq, payload)
}

// AppendEchoRequest appends an ICMPv6 Echo Request datagram to buf and
// returns the extended slice. Passing a reused scratch buffer builds the
// packet without allocating.
func AppendEchoRequest(buf []byte, src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	return appendEcho(buf, icmpTypeEchoRequest, src, dst, id, seq, payload)
}

// BuildEchoReply constructs the matching ICMPv6 Echo Reply, echoing id,
// seq, and payload per RFC 4443 §4.2.
func BuildEchoReply(src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	return appendEcho(nil, icmpTypeEchoReply, src, dst, id, seq, payload)
}

// AppendEchoReply appends an ICMPv6 Echo Reply to buf and returns the
// extended slice — the allocation-free form responders use.
func AppendEchoReply(buf []byte, src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	return appendEcho(buf, icmpTypeEchoReply, src, dst, id, seq, payload)
}

func appendEcho(buf []byte, typ uint8, src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	l4len := 8 + len(payload)
	buf, pkt := grow(buf, IPv6HeaderLen+l4len)
	putIPv6Header(pkt, src, dst, ProtoICMPv6, l4len)
	l4 := pkt[IPv6HeaderLen:]
	l4[0] = typ
	l4[1] = 0           // code
	l4[2], l4[3] = 0, 0 // checksum below (grow does not zero)
	binary.BigEndian.PutUint16(l4[4:6], id)
	binary.BigEndian.PutUint16(l4[6:8], seq)
	copy(l4[8:], payload)
	binary.BigEndian.PutUint16(l4[2:4], checksum(src, dst, ProtoICMPv6, l4))
	return buf
}

// BuildUnreachable constructs an ICMPv6 Destination Unreachable message
// quoting the start of the invoking packet, as routers do. The src is the
// responding router; dst is the original prober.
func BuildUnreachable(src, dst ipaddr.Addr, code uint8, invoking []byte) []byte {
	return AppendUnreachable(nil, src, dst, code, invoking)
}

// AppendUnreachable appends an ICMPv6 Destination Unreachable message to
// buf and returns the extended slice — the allocation-free form responders
// use.
func AppendUnreachable(buf []byte, src, dst ipaddr.Addr, code uint8, invoking []byte) []byte {
	quote := invoking
	if len(quote) > IPv6HeaderLen+unreachInvokedBytes {
		quote = quote[:IPv6HeaderLen+unreachInvokedBytes]
	}
	l4len := 8 + len(quote)
	buf, pkt := grow(buf, IPv6HeaderLen+l4len)
	putIPv6Header(pkt, src, dst, ProtoICMPv6, l4len)
	l4 := pkt[IPv6HeaderLen:]
	l4[0] = icmpTypeUnreachable
	l4[1] = code
	l4[2], l4[3] = 0, 0                     // checksum below (grow does not zero)
	l4[4], l4[5], l4[6], l4[7] = 0, 0, 0, 0 // unused per RFC 4443 §3.1
	copy(l4[8:], quote)
	binary.BigEndian.PutUint16(l4[2:4], checksum(src, dst, ProtoICMPv6, l4))
	return buf
}

func parseICMP(p *Packet, l4 []byte) error {
	if len(l4) < 8 {
		return ErrTruncated
	}
	if !verifyChecksum(p.Header.Src, p.Header.Dst, ProtoICMPv6, l4, 2) {
		return ErrBadChecksum
	}
	switch l4[0] {
	case icmpTypeEchoRequest:
		p.Kind = KindEchoRequest
	case icmpTypeEchoReply:
		p.Kind = KindEchoReply
	case icmpTypeUnreachable:
		p.Kind = KindUnreachable
		p.UnreachCode = l4[1]
		p.Payload = l4[8:]
		return nil
	default:
		p.Kind = KindUnknown
		return nil
	}
	p.EchoID = binary.BigEndian.Uint16(l4[4:6])
	p.EchoSeq = binary.BigEndian.Uint16(l4[6:8])
	p.Payload = l4[8:]
	return nil
}
