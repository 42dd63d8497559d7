package probe

import (
	"encoding/binary"
	"errors"
	"strings"

	"seedscan/internal/ipaddr"
)

// dnsHeaderLen is the fixed DNS message header size (RFC 1035 §4.1.1).
const dnsHeaderLen = 12

const udpHeaderLen = 8

// DNS query type and class used by the scanner (AAAA, IN), matching the
// version-bind-style liveness probes real UDP/53 scans send.
const (
	dnsTypeAAAA = 28
	dnsClassIN  = 1
)

// errBadName reports an unencodable or undecodable DNS name.
var errBadName = errors.New("probe: bad DNS name")

// AppendDNSQueryWire appends a UDP/53 DNS query (AAAA, IN) for an already
// wire-encoded name (see EncodeName) to buf and returns the extended
// slice. Pre-encoding the name once and passing a reused scratch buffer
// builds the packet without allocating.
func AppendDNSQueryWire(buf []byte, src, dst ipaddr.Addr, srcPort, txid uint16, wireName []byte) []byte {
	msgLen := dnsHeaderLen + len(wireName) + 4
	buf, pkt := grow(buf, IPv6HeaderLen+udpHeaderLen+msgLen)
	putIPv6Header(pkt, src, dst, protoUDP, udpHeaderLen+msgLen)
	l4 := pkt[IPv6HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:2], srcPort)
	binary.BigEndian.PutUint16(l4[2:4], 53)
	binary.BigEndian.PutUint16(l4[4:6], uint16(len(l4)))
	l4[6], l4[7] = 0, 0 // checksum below (grow does not zero)
	msg := l4[udpHeaderLen:]
	binary.BigEndian.PutUint16(msg[0:2], txid)
	msg[2] = 0x01 // RD
	msg[3] = 0
	binary.BigEndian.PutUint16(msg[4:6], 1)
	msg[6], msg[7], msg[8], msg[9], msg[10], msg[11] = 0, 0, 0, 0, 0, 0 // AN/NS/AR counts
	copy(msg[dnsHeaderLen:], wireName)
	off := dnsHeaderLen + len(wireName)
	binary.BigEndian.PutUint16(msg[off:off+2], dnsTypeAAAA)
	binary.BigEndian.PutUint16(msg[off+2:off+4], dnsClassIN)
	binary.BigEndian.PutUint16(l4[6:8], checksum(src, dst, protoUDP, l4))
	return buf
}

// EncodeName converts "a.example.com" to DNS wire-format labels — the
// pre-encoding step for AppendDNSQueryWire.
func EncodeName(name string) ([]byte, error) { return encodeName(name) }

// appendDNSResponse appends the matching DNS response to buf and returns
// the extended slice: QR set, question echoed, zero answers (a
// REFUSED-style reply — enough to count liveness).
func appendDNSResponse(buf []byte, src, dst ipaddr.Addr, dstPort, txid uint16, question []byte) []byte {
	msgLen := dnsHeaderLen + len(question)
	buf, pkt := grow(buf, IPv6HeaderLen+udpHeaderLen+msgLen)
	putIPv6Header(pkt, src, dst, protoUDP, udpHeaderLen+msgLen)
	l4 := pkt[IPv6HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:2], 53)
	binary.BigEndian.PutUint16(l4[2:4], dstPort)
	binary.BigEndian.PutUint16(l4[4:6], uint16(len(l4)))
	l4[6], l4[7] = 0, 0 // checksum below (grow does not zero)
	msg := l4[udpHeaderLen:]
	binary.BigEndian.PutUint16(msg[0:2], txid)
	msg[2] = 0x81 // QR + RD
	msg[3] = 0x05 // RA=0, rcode REFUSED
	binary.BigEndian.PutUint16(msg[4:6], 1)
	msg[6], msg[7], msg[8], msg[9], msg[10], msg[11] = 0, 0, 0, 0, 0, 0 // AN/NS/AR counts
	copy(msg[dnsHeaderLen:], question)
	binary.BigEndian.PutUint16(l4[6:8], checksum(src, dst, protoUDP, l4))
	return buf
}

func parseUDP(p *Packet, l4 []byte) error {
	if len(l4) < udpHeaderLen {
		return ErrTruncated
	}
	if !verifyChecksum(p.Header.Src, p.Header.Dst, protoUDP, l4, 6) {
		return errBadChecksum
	}
	p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	p.DstPort = binary.BigEndian.Uint16(l4[2:4])
	msg := l4[udpHeaderLen:]
	if len(msg) < dnsHeaderLen {
		p.Kind = KindUnknown
		return nil
	}
	p.DNSID = binary.BigEndian.Uint16(msg[0:2])
	if msg[2]&0x80 != 0 {
		p.Kind = KindDNSResponse
	} else {
		p.Kind = KindDNSQuery
	}
	p.Payload = msg[dnsHeaderLen:] // question section onward
	return nil
}

// encodeName converts "a.example.com" to DNS wire format labels.
func encodeName(name string) ([]byte, error) {
	if name == "" || len(name) > 253 {
		return nil, errBadName
	}
	var out []byte
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if label == "" || len(label) > 63 {
			return nil, errBadName
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0), nil
}
