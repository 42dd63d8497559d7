package ipaddr

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Prefix is an IPv6 CIDR prefix: an address plus a prefix length in bits.
// The address is always stored masked to the prefix length.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom builds a prefix from an address and bit length, masking the
// address. It panics if bits is outside [0, 128].
func PrefixFrom(a Addr, bits int) Prefix {
	if bits < 0 || bits > 128 {
		panic(fmt.Sprintf("ipaddr: invalid prefix length %d", bits))
	}
	return Prefix{addr: mask(a, bits), bits: uint8(bits)}
}

// ParsePrefix parses "addr/len" CIDR notation. The length is plain decimal,
// without a sign or a leading zero, as in net/netip; host bits are masked.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("ipaddr: prefix %q: missing '/'", s)
	}
	a, err := Parse(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	n := s[i+1:]
	bits, err := strconv.Atoi(n)
	if err != nil || n[0] < '0' || (n[0] == '0' && len(n) > 1) || bits > 128 {
		return Prefix{}, fmt.Errorf("ipaddr: prefix %q: bad length", s)
	}
	return PrefixFrom(a, bits), nil
}

// MustParsePrefix is ParsePrefix but panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(a Addr, bits int) Addr {
	switch {
	case bits <= 0:
		return Addr{}
	case bits >= 128:
		return a
	case bits <= 64:
		return Addr{hi: a.hi &^ (^uint64(0) >> uint(bits))}
	default:
		return Addr{hi: a.hi, lo: a.lo &^ (^uint64(0) >> uint(bits-64))}
	}
}

// Addr returns the (masked) base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length in bits.
func (p Prefix) Bits() int { return int(p.bits) }

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Contains reports whether a falls within p.
func (p Prefix) Contains(a Addr) bool { return mask(a, int(p.bits)) == p.addr }

// ContainsPrefix reports whether q is entirely within p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Last returns the numerically highest address in p.
func (p Prefix) Last() Addr {
	bits := int(p.bits)
	a := p.addr
	switch {
	case bits >= 128:
		return a
	case bits <= 64:
		a.lo = ^uint64(0)
		if bits < 64 {
			a.hi |= ^uint64(0) >> uint(bits)
		}
		return a
	default:
		a.lo |= ^uint64(0) >> uint(bits-64)
		return a
	}
}

// RandomWithin returns a uniformly random address inside p using rng.
func (p Prefix) RandomWithin(rng *rand.Rand) Addr {
	r := Addr{hi: rng.Uint64(), lo: rng.Uint64()}
	return p.Overlay(r)
}

// Overlay keeps p's prefix bits and fills the host bits from a.
func (p Prefix) Overlay(a Addr) Addr {
	bits := int(p.bits)
	switch {
	case bits <= 0:
		return a
	case bits >= 128:
		return p.addr
	case bits <= 64:
		m := ^uint64(0) >> uint(bits)
		return Addr{hi: p.addr.hi | a.hi&m, lo: a.lo}
	default:
		m := ^uint64(0) >> uint(bits-64)
		return Addr{hi: p.addr.hi, lo: p.addr.lo | a.lo&m}
	}
}
