package world

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"seedscan/internal/ipaddr"
)

func TestTemplateFromPrefixMatchesOnlyInside(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := templateFromPrefix(p)
	if !tpl.matches(ipaddr.MustParse("2001:db8:1234::1")) {
		t.Fatal("inside address should match")
	}
	if tpl.matches(ipaddr.MustParse("2001:db9::1")) {
		t.Fatal("outside address should not match")
	}
}

func TestTemplateFromPrefixPartialNybble(t *testing.T) {
	// /34 pins 8 nybbles and half of the 9th.
	p := ipaddr.MustParsePrefix("2001:db8:4000::/34")
	tpl := templateFromPrefix(p)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := tpl.random(rng)
		if !p.Contains(a) {
			t.Fatalf("random in-template addr %v escapes %v", a, p)
		}
	}
	if tpl.matches(ipaddr.MustParse("2001:db8:8000::1")) {
		t.Fatal("address outside /34 half must not match")
	}
}

func TestTemplatePinAllowAndMatch(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := baseTemplate(p)
	tpl.pin(31, 1)
	tpl.allow(12, 0, 1, 2, 3)
	if !tpl.matches(ipaddr.MustParse("2001:db8:0:2000::1")) {
		t.Fatal("conforming address should match")
	}
	if tpl.matches(ipaddr.MustParse("2001:db8:0:2000::2")) {
		t.Fatal("wrong pinned nybble should not match")
	}
	if tpl.matches(ipaddr.MustParse("2001:db8:0:5000::1")) {
		t.Fatal("disallowed variable value should not match")
	}
}

func TestAllowSingleValueBecomesPin(t *testing.T) {
	var tpl Template
	tpl.allow(5, 7)
	if tpl.varMask[5] != 0 || tpl.fixed[5] != 7 {
		t.Fatal("single-value Allow should pin")
	}
}

func TestTemplateRandomAlwaysMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := ipaddr.PrefixFrom(ipaddr.AddrFrom64s(r.Uint64(), 0), 32+4*r.Intn(5))
		tpl := baseTemplate(p)
		for i := 0; i < 5; i++ {
			pos := 8 + r.Intn(24)
			tpl.allowMask(pos, uint16(r.Intn(1<<16))|1) // never zero
		}
		for i := 0; i < 20; i++ {
			if !tpl.matches(tpl.random(rng)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateSizeAndEnumerate(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := baseTemplate(p)
	tpl.allow(30, 0, 1)
	tpl.allow(31, 0, 1, 2, 3)
	if got := tpl.size(); got != 8 {
		t.Fatalf("Size = %v, want 8", got)
	}
	addrs := tpl.enumerate(100)
	if len(addrs) != 8 {
		t.Fatalf("Enumerate returned %d", len(addrs))
	}
	seen := ipaddr.NewSet(addrs...)
	if seen.Len() != 8 {
		t.Fatal("Enumerate produced duplicates")
	}
	for _, a := range addrs {
		if !tpl.matches(a) {
			t.Fatalf("enumerated %v does not match", a)
		}
	}
	// Cap respected.
	if got := tpl.enumerate(3); len(got) != 3 {
		t.Fatalf("capped Enumerate returned %d", len(got))
	}
}

func TestTemplateVariablePositionsAndString(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := baseTemplate(p)
	tpl.allow(31, 0, 1)
	tpl.allowMask(30, 0xffff)
	vp := tpl.variablePositions()
	if len(vp) != 2 || vp[0] != 30 || vp[1] != 31 {
		t.Fatalf("VariablePositions = %v", vp)
	}
	s := tpl.String()
	if len(s) != ipaddr.NybbleCount {
		t.Fatalf("String len = %d", len(s))
	}
	if s[30] != '*' || s[31] != '?' {
		t.Fatalf("String markers wrong: %q", s)
	}
	if s[:8] != "20010db8" {
		t.Fatalf("String prefix wrong: %q", s)
	}
}

// FuzzTemplateMatch ties the compiled matcher existsAt uses to its
// definition, Template.matches. A template starts from templateFromPrefix
// (partial nybbles included) and shape rewrites its positions: byte b
// makes one fixed (to b>>4, or to b itself when b&4 is set — a value no
// nybble has), fully variable, restricted to a random mask (empty,
// single-valued and full masks included), or leaves it as the prefix set
// it. Checked against it: in-template addresses from Random, each of
// their 480 one-nybble neighbours, and uniformly random addresses.
func FuzzTemplateMatch(f *testing.F) {
	f.Add(int64(1), uint8(32), []byte{})
	f.Add(int64(2), uint8(34), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 0x70, 1, 2, 2, 6, 0xf4})
	f.Add(int64(3), uint8(0), []byte{0, 1, 2, 4, 0x10, 0x21, 0x32, 0xff})
	f.Add(int64(4), uint8(128), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(5), uint8(61), bytes.Repeat([]byte{1}, 32))
	f.Add(int64(6), uint8(0), []byte{0xf4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0x54})
	f.Fuzz(func(t *testing.T, seed int64, bits uint8, shape []byte) {
		rng := rand.New(rand.NewSource(seed))
		base := ipaddr.AddrFrom64s(rng.Uint64(), rng.Uint64())
		tpl := templateFromPrefix(ipaddr.PrefixFrom(base, int(bits)%129))
		for i := 0; i < len(shape) && i < ipaddr.NybbleCount; i++ {
			switch b := shape[i]; b & 3 {
			case 0:
				tpl.varMask[i], tpl.fixed[i] = 0, b>>4
				if b&4 != 0 {
					tpl.fixed[i] = b
				}
			case 1:
				tpl.varMask[i] = 0xffff
			case 2:
				tpl.varMask[i] = uint16(rng.Uint32())
				tpl.fixed[i] = byte(rng.Intn(16))
			}
		}
		m := tpl.compile()
		check := func(a ipaddr.Addr) {
			if got, want := m.matches(a), tpl.matches(a); got != want {
				t.Fatalf("template with fixed %x, masks %x: compiled matcher says %v for %s, Matches says %v",
					tpl.fixed, tpl.varMask, got, a, want)
			}
		}
		for k := 0; k < 4; k++ {
			a := tpl.random(rng)
			check(a)
			for i := 0; i < ipaddr.NybbleCount; i++ {
				for v := byte(0); v < 16; v++ {
					if v != a.Nybble(i) {
						check(a.WithNybble(i, v))
					}
				}
			}
			check(ipaddr.AddrFrom64s(rng.Uint64(), rng.Uint64()))
		}
	})
}

// allow restricts position i to the values in vals.
func (t *Template) allow(i int, vals ...byte) {
	var m uint16
	for _, v := range vals {
		m |= 1 << (v & 0xf)
	}
	if bits.OnesCount16(m) == 1 {
		t.pin(i, byte(bits.TrailingZeros16(m)))
		return
	}
	t.varMask[i] = m
}

// matches reports whether a conforms to the template.
func (t *Template) matches(a ipaddr.Addr) bool {
	for i := 0; i < ipaddr.NybbleCount; i++ {
		v := a.Nybble(i)
		if m := t.varMask[i]; m != 0 {
			if m&(1<<v) == 0 {
				return false
			}
		} else if v != t.fixed[i] {
			return false
		}
	}
	return true
}

// variablePositions returns the indices of non-fixed positions.
func (t *Template) variablePositions() []int {
	var out []int
	for i, m := range t.varMask {
		if m != 0 {
			out = append(out, i)
		}
	}
	return out
}

// enumerate lists up to max in-template addresses in lexicographic order.
// It is intended for small templates; generation stops once max addresses
// have been produced.
func (t *Template) enumerate(max int) []ipaddr.Addr {
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
		if m := t.varMask[i]; m != 0 {
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
		return rec(i+1, a.WithNybble(i, t.fixed[i]))
	}
	rec(0, ipaddr.Addr{})
	return out
}
