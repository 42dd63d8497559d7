// Package ipaddr provides the IPv6 address primitives used throughout
// seedscan: a compact value type with nybble-level access, prefixes, sets,
// and a binary radix trie for longest-prefix matching.
//
// There is one address set, Set, and it keeps insertion order: Slice, Each
// and the derived sets iterate in the order addresses were first added, so
// set algebra over deterministically built inputs is itself deterministic.
// Its slots are int32 (at most 2^30 addresses) and its hash is unkeyed: no
// network-facing handler builds a Set. Dedup and Deduper are the same
// table, bare.
//
// Target Generation Algorithms operate on the 32 hexadecimal digits
// ("nybbles") of an IPv6 address, so nybble indexing is a first-class
// operation here: nybble 0 is the most significant hex digit and nybble 31
// the least significant.
package ipaddr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"strings"
)

// NybbleCount is the number of hexadecimal digits in an IPv6 address.
const NybbleCount = 32

// Addr is a 128-bit IPv6 address. It is a comparable value type usable as a
// map key. The zero value is "::".
type Addr struct {
	hi, lo uint64
}

// AddrFrom64s builds an address from its high and low 64-bit halves.
func AddrFrom64s(hi, lo uint64) Addr { return Addr{hi: hi, lo: lo} }

// AddrFrom16 builds an address from a 16-byte slice or array in network
// (big-endian) order.
func AddrFrom16(b [16]byte) Addr {
	return Addr{
		hi: binary.BigEndian.Uint64(b[0:8]),
		lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Parse parses an IPv6 address in any textual form accepted by net/netip.
// IPv4 and IPv4-mapped forms are rejected: seedscan deals exclusively in
// native IPv6. So are zoned forms ("fe80::1%eth0"): Addr has no zone, and
// dropping it would answer for an address the input did not name.
func Parse(s string) (Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, fmt.Errorf("ipaddr: parse %q: %w", s, err)
	}
	if !a.Is6() || a.Is4In6() {
		return Addr{}, fmt.Errorf("ipaddr: parse %q: not a native IPv6 address", s)
	}
	if a.Zone() != "" {
		return Addr{}, fmt.Errorf("ipaddr: parse %q: zoned address", s)
	}
	return AddrFrom16(a.As16()), nil
}

// MustParse is Parse but panics on error. For tests and constants.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Hi returns the high (most significant) 64 bits.
func (a Addr) Hi() uint64 { return a.hi }

// Lo returns the low (least significant) 64 bits.
func (a Addr) Lo() uint64 { return a.lo }

// As16 returns the address as a 16-byte array in network order.
func (a Addr) As16() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], a.hi)
	binary.BigEndian.PutUint64(b[8:16], a.lo)
	return b
}

// netIP converts to a net/netip address, mainly for formatting.
func (a Addr) netIP() netip.Addr { return netip.AddrFrom16(a.As16()) }

// String renders the address in canonical RFC 5952 form.
func (a Addr) String() string { return a.netIP().String() }

// FullHex renders the address as 32 hex digits without separators, the
// representation TGAs mine patterns from.
func (a Addr) FullHex() string {
	var sb strings.Builder
	sb.Grow(NybbleCount)
	for i := 0; i < NybbleCount; i++ {
		sb.WriteByte(hexDigit(a.Nybble(i)))
	}
	return sb.String()
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

// Nybble returns hex digit i (0 = most significant, 31 = least).
func (a Addr) Nybble(i int) byte {
	if i < 16 {
		return byte(a.hi >> uint(60-4*i) & 0xf)
	}
	return byte(a.lo >> uint(60-4*(i-16)) & 0xf)
}

// WithNybble returns a copy of a with hex digit i set to v (low 4 bits used).
func (a Addr) WithNybble(i int, v byte) Addr {
	m := uint64(0xf)
	x := uint64(v & 0xf)
	if i < 16 {
		sh := uint(60 - 4*i)
		a.hi = a.hi&^(m<<sh) | x<<sh
	} else {
		sh := uint(60 - 4*(i-16))
		a.lo = a.lo&^(m<<sh) | x<<sh
	}
	return a
}

// withBit returns a copy of a with bit i set to the low bit of v.
func (a Addr) withBit(i int, v byte) Addr {
	x := uint64(v & 1)
	if i < 64 {
		sh := uint(63 - i)
		a.hi = a.hi&^(1<<sh) | x<<sh
	} else {
		sh := uint(127 - i)
		a.lo = a.lo&^(1<<sh) | x<<sh
	}
	return a
}

// Less reports whether a sorts before b in numeric (big-endian) order.
func (a Addr) Less(b Addr) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// Compare returns -1, 0, or +1 comparing a to b numerically.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// IsZero reports whether a is the unspecified address "::".
func (a Addr) IsZero() bool { return a.hi == 0 && a.lo == 0 }

// AddLo returns a with delta added to the low 64 bits, carrying into the
// high half on overflow.
func (a Addr) AddLo(delta uint64) Addr {
	lo := a.lo + delta
	if lo < a.lo {
		a.hi++
	}
	a.lo = lo
	return a
}

// CommonPrefixLen returns the number of leading bits a and b share (0..128).
func (a Addr) CommonPrefixLen(b Addr) int {
	if x := a.hi ^ b.hi; x != 0 {
		return leadingZeros64(x)
	}
	if x := a.lo ^ b.lo; x != 0 {
		return 64 + leadingZeros64(x)
	}
	return 128
}

// NybbleDistance returns the number of hex digit positions where a and b
// differ — the Hamming distance over nybbles used by 6Gen's clustering.
func (a Addr) NybbleDistance(b Addr) int {
	return nonzeroNybbles(a.hi^b.hi) + nonzeroNybbles(a.lo^b.lo)
}

// nonzeroNybbles counts the hex digits of x that are not zero: each
// nybble's four bits are folded into its lowest, and those are counted.
func nonzeroNybbles(x uint64) int {
	x |= x >> 1
	x |= x >> 2
	return bits.OnesCount64(x & 0x1111111111111111)
}

func leadingZeros64(x uint64) int {
	n := 0
	if x>>32 == 0 {
		n += 32
		x <<= 32
	}
	if x>>48 == 0 {
		n += 16
		x <<= 16
	}
	if x>>56 == 0 {
		n += 8
		x <<= 8
	}
	if x>>60 == 0 {
		n += 4
		x <<= 4
	}
	if x>>62 == 0 {
		n += 2
		x <<= 2
	}
	if x>>63 == 0 {
		n++
	}
	return n
}
