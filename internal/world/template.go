package world

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"seedscan/internal/ipaddr"
)

// Template describes an addressing pattern within a region: for each of the
// 32 nybble positions either a fixed hex value or a set of allowed values
// (a 16-bit mask). This is the structure TGAs mine: seeds drawn from a
// template reveal which positions vary and which values they take, and
// generating other in-template addresses yields hits at the region's
// density.
type Template struct {
	// Fixed holds the value for positions whose VarMask entry is zero.
	Fixed [ipaddr.NybbleCount]byte
	// VarMask holds the allowed-value bitmask per position; bit v set means
	// hex value v is permitted. Zero marks the position fixed.
	VarMask [ipaddr.NybbleCount]uint16
}

// TemplateFromPrefix starts a template whose prefix nybbles are pinned to p
// and whose remaining positions are fully variable.
func TemplateFromPrefix(p ipaddr.Prefix) Template {
	var t Template
	a := p.Addr()
	fixedNybbles := p.Bits() / 4
	for i := 0; i < ipaddr.NybbleCount; i++ {
		switch {
		case i < fixedNybbles:
			t.Fixed[i] = a.Nybble(i)
		case i == fixedNybbles && p.Bits()%4 != 0:
			// Partial nybble: allow values consistent with the prefix bits.
			rem := p.Bits() % 4
			base := a.Nybble(i) >> (4 - rem) << (4 - rem)
			var m uint16
			for v := base; v < base+1<<(4-rem); v++ {
				m |= 1 << v
			}
			t.VarMask[i] = m
		default:
			t.VarMask[i] = 0xffff
		}
	}
	return t
}

// Pin fixes position i to value v.
func (t *Template) Pin(i int, v byte) {
	t.Fixed[i] = v & 0xf
	t.VarMask[i] = 0
}

// Allow restricts position i to the values in vals.
func (t *Template) Allow(i int, vals ...byte) {
	var m uint16
	for _, v := range vals {
		m |= 1 << (v & 0xf)
	}
	if bits.OnesCount16(m) == 1 {
		t.Pin(i, byte(bits.TrailingZeros16(m)))
		return
	}
	t.VarMask[i] = m
}

// AllowMask restricts position i to the values set in mask.
func (t *Template) AllowMask(i int, mask uint16) {
	if bits.OnesCount16(mask) == 1 {
		t.Pin(i, byte(bits.TrailingZeros16(mask)))
		return
	}
	t.VarMask[i] = mask
}

// Matches reports whether a conforms to the template.
func (t *Template) Matches(a ipaddr.Addr) bool {
	for i := 0; i < ipaddr.NybbleCount; i++ {
		v := a.Nybble(i)
		if m := t.VarMask[i]; m != 0 {
			if m&(1<<v) == 0 {
				return false
			}
		} else if v != t.Fixed[i] {
			return false
		}
	}
	return true
}

// templateMatch is a Template compiled for the per-probe membership test.
// Fixed nybbles (and restrictions to a single value) fold into one masked
// compare per address half; restricted nybbles become a short list tested
// one by one; fully variable nybbles cost nothing. It accepts exactly the
// addresses Template.Matches accepts.
type templateMatch struct {
	mask, want [2]uint64 // per half: a fixed nybble's bits, and their value
	restricted []nybbleSet
}

// nybbleSet is one restricted position: the nybble at bit offset shift of
// the high (lo false) or low half must be a value set in allowed.
type nybbleSet struct {
	shift   uint8
	lo      bool
	allowed uint16
}

// compile folds t into its templateMatch.
func (t *Template) compile() templateMatch {
	var m templateMatch
	for i := 0; i < ipaddr.NybbleCount; i++ {
		half, shift := i/16, uint8(60-4*(i%16))
		v, allowed := t.Fixed[i], t.VarMask[i]
		switch {
		case allowed == 0xffff:
			continue
		case bits.OnesCount16(allowed) == 1:
			v = byte(bits.TrailingZeros16(allowed))
		case allowed == 0 && v <= 0xf:
		default:
			// Restricted; or fixed to a value beyond a nybble, which
			// matches nothing, as its empty allowed set says.
			m.restricted = append(m.restricted, nybbleSet{shift: shift, lo: half == 1, allowed: allowed})
			continue
		}
		m.mask[half] |= 0xf << shift
		m.want[half] |= uint64(v) << shift
	}
	return m
}

// matches reports whether a conforms to the compiled template.
func (m *templateMatch) matches(a ipaddr.Addr) bool {
	hi, lo := a.Hi(), a.Lo()
	if hi&m.mask[0] != m.want[0] || lo&m.mask[1] != m.want[1] {
		return false
	}
	for _, n := range m.restricted {
		h := hi
		if n.lo {
			h = lo
		}
		if n.allowed>>(h>>n.shift&0xf)&1 == 0 {
			return false
		}
	}
	return true
}

// Random samples a uniformly random in-template address.
func (t *Template) Random(rng *rand.Rand) ipaddr.Addr {
	var a ipaddr.Addr
	for i := 0; i < ipaddr.NybbleCount; i++ {
		if m := t.VarMask[i]; m != 0 {
			n := bits.OnesCount16(m)
			k := rng.Intn(n)
			a = a.WithNybble(i, nthSetBit(m, k))
		} else {
			a = a.WithNybble(i, t.Fixed[i])
		}
	}
	return a
}

// nthSetBit returns the position of the k-th (0-based) set bit in m.
func nthSetBit(m uint16, k int) byte {
	for v := 0; v < 16; v++ {
		if m&(1<<v) != 0 {
			if k == 0 {
				return byte(v)
			}
			k--
		}
	}
	return 0
}

// Log2Size returns log2 of the number of in-template addresses.
func (t *Template) Log2Size() float64 {
	s := 0.0
	for i := 0; i < ipaddr.NybbleCount; i++ {
		if m := t.VarMask[i]; m != 0 {
			s += math.Log2(float64(bits.OnesCount16(m)))
		}
	}
	return s
}

// Size returns the number of in-template addresses, saturating at MaxFloat.
func (t *Template) Size() float64 {
	return math.Exp2(t.Log2Size())
}

// VariablePositions returns the indices of non-fixed positions.
func (t *Template) VariablePositions() []int {
	var out []int
	for i, m := range t.VarMask {
		if m != 0 {
			out = append(out, i)
		}
	}
	return out
}

// String renders the template with fixed hex digits and '*' (full) or '?'
// (restricted) for variable positions, e.g. "20010db8000c????0000000000000*??".
func (t *Template) String() string {
	var sb strings.Builder
	for i := 0; i < ipaddr.NybbleCount; i++ {
		switch m := t.VarMask[i]; {
		case m == 0:
			const hex = "0123456789abcdef"
			sb.WriteByte(hex[t.Fixed[i]])
		case m == 0xffff:
			sb.WriteByte('*')
		default:
			sb.WriteByte('?')
		}
	}
	return sb.String()
}

// Enumerate lists up to max in-template addresses in lexicographic order.
// It is intended for small templates; generation stops once max addresses
// have been produced.
func (t *Template) Enumerate(max int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, min(max, 1024))
	var rec func(i int, a ipaddr.Addr) bool
	rec = func(i int, a ipaddr.Addr) bool {
		if len(out) >= max {
			return false
		}
		if i == ipaddr.NybbleCount {
			out = append(out, a)
			return len(out) < max
		}
		if m := t.VarMask[i]; m != 0 {
			for v := 0; v < 16; v++ {
				if m&(1<<v) == 0 {
					continue
				}
				if !rec(i+1, a.WithNybble(i, byte(v))) {
					return false
				}
			}
			return true
		}
		return rec(i+1, a.WithNybble(i, t.Fixed[i]))
	}
	rec(0, ipaddr.Addr{})
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
