package probe

import (
	"encoding/binary"

	"seedscan/internal/ipaddr"
)

// TCP flag bits.
const (
	tcpFlagFin = 1 << 0
	tcpFlagSyn = 1 << 1
	tcpFlagRst = 1 << 2
	tcpFlagAck = 1 << 4
)

const tcpHeaderLen = 20

// AppendTCPSyn appends a TCP SYN probe to buf and returns the extended
// slice. Passing a reused scratch buffer builds the packet without
// allocating.
func AppendTCPSyn(buf []byte, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq uint32) []byte {
	return appendTCP(buf, src, dst, srcPort, dstPort, seq, 0, tcpFlagSyn)
}

// AppendTCPSynAck appends a SYN-ACK to buf and returns the extended slice —
// the allocation-free form responders use.
func AppendTCPSynAck(buf []byte, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return appendTCP(buf, src, dst, srcPort, dstPort, seq, ack, tcpFlagSyn|tcpFlagAck)
}

// appendTCPRst appends a RST to buf and returns the extended slice — the
// allocation-free form responders use.
func appendTCPRst(buf []byte, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return appendTCP(buf, src, dst, srcPort, dstPort, seq, ack, tcpFlagRst|tcpFlagAck)
}

func appendTCP(buf []byte, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq, ack uint32, flags uint8) []byte {
	buf, pkt := grow(buf, IPv6HeaderLen+tcpHeaderLen)
	putIPv6Header(pkt, src, dst, protoTCP, tcpHeaderLen)
	l4 := pkt[IPv6HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:2], srcPort)
	binary.BigEndian.PutUint16(l4[2:4], dstPort)
	binary.BigEndian.PutUint32(l4[4:8], seq)
	binary.BigEndian.PutUint32(l4[8:12], ack)
	l4[12] = (tcpHeaderLen / 4) << 4 // data offset
	l4[13] = flags
	binary.BigEndian.PutUint16(l4[14:16], 65535) // window
	l4[16], l4[17] = 0, 0                        // checksum below
	l4[18], l4[19] = 0, 0                        // urgent pointer (grow does not zero)
	binary.BigEndian.PutUint16(l4[16:18], checksum(src, dst, protoTCP, l4))
	return buf
}

func parseTCP(p *Packet, l4 []byte) error {
	if len(l4) < tcpHeaderLen {
		return ErrTruncated
	}
	if !verifyChecksum(p.Header.Src, p.Header.Dst, protoTCP, l4, 16) {
		return errBadChecksum
	}
	p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	p.DstPort = binary.BigEndian.Uint16(l4[2:4])
	p.TCPSeq = binary.BigEndian.Uint32(l4[4:8])
	p.TCPAck = binary.BigEndian.Uint32(l4[8:12])
	flags := l4[13]
	switch {
	case flags&tcpFlagRst != 0:
		p.Kind = KindTCPRst
	case flags&tcpFlagSyn != 0 && flags&tcpFlagAck != 0:
		p.Kind = KindTCPSynAck
	case flags&tcpFlagSyn != 0:
		p.Kind = KindTCPSyn
	default:
		p.Kind = KindUnknown
	}
	return nil
}
