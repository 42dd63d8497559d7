package probe

import "seedscan/internal/ipaddr"

// RewriteSrc replaces pkt's IPv6 source address in place and refreshes the
// transport checksum (the pseudo-header covers both addresses, so the
// checksum must be recomputed, not patched). It is the building block for
// wire middlewares that rotate a scanner's origin across a source pool.
//
// pkt must be a well-formed packet as produced by the Append* builders;
// malformed or truncated input returns an error with pkt unchanged beyond
// the address bytes already written.
func RewriteSrc(pkt []byte, src ipaddr.Addr) error {
	return rewriteAddr(pkt, src, 8)
}

// RewriteDst is RewriteSrc for the destination address — the return half
// of a source-rotating middleware, NAT-ing replies back to the address the
// scanner expects.
func RewriteDst(pkt []byte, dst ipaddr.Addr) error {
	return rewriteAddr(pkt, dst, 24)
}

// rewriteAddr overwrites the 16 address bytes at off and recomputes the
// transport checksum for whichever protocol the next-header field names.
func rewriteAddr(pkt []byte, a ipaddr.Addr, off int) error {
	if len(pkt) < IPv6HeaderLen {
		return ErrTruncated
	}
	if pkt[0]>>4 != 6 {
		return errBadVersion
	}
	b := a.As16()
	copy(pkt[off:off+16], b[:])

	next := pkt[6]
	var at int
	switch next {
	case protoICMPv6:
		at = 2
	case protoTCP:
		at = 16
	case protoUDP:
		at = 6
	default:
		// Unknown transport: the address is rewritten but no checksum
		// covers it, which is all that can be done generically.
		return nil
	}
	l4 := pkt[IPv6HeaderLen:]
	if plen := int(uint16(pkt[4])<<8 | uint16(pkt[5])); plen <= len(l4) {
		l4 = l4[:plen]
	}
	if len(l4) < at+2 {
		return ErrTruncated
	}
	l4[at], l4[at+1] = 0, 0
	var s, d [16]byte
	copy(s[:], pkt[8:24])
	copy(d[:], pkt[24:40])
	ck := checksum(ipaddr.AddrFrom16(s), ipaddr.AddrFrom16(d), next, l4)
	l4[at] = byte(ck >> 8)
	l4[at+1] = byte(ck)
	return nil
}
