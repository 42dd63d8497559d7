package world

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"seedscan/internal/ipaddr"
)

func TestTemplateFromPrefixMatchesOnlyInside(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := TemplateFromPrefix(p)
	if !tpl.Matches(ipaddr.MustParse("2001:db8:1234::1")) {
		t.Fatal("inside address should match")
	}
	if tpl.Matches(ipaddr.MustParse("2001:db9::1")) {
		t.Fatal("outside address should not match")
	}
}

func TestTemplateFromPrefixPartialNybble(t *testing.T) {
	// /34 pins 8 nybbles and half of the 9th.
	p := ipaddr.MustParsePrefix("2001:db8:4000::/34")
	tpl := TemplateFromPrefix(p)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := tpl.Random(rng)
		if !p.Contains(a) {
			t.Fatalf("random in-template addr %v escapes %v", a, p)
		}
	}
	if tpl.Matches(ipaddr.MustParse("2001:db8:8000::1")) {
		t.Fatal("address outside /34 half must not match")
	}
}

func TestTemplatePinAllowAndMatch(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := baseTemplate(p)
	tpl.Pin(31, 1)
	tpl.Allow(12, 0, 1, 2, 3)
	if !tpl.Matches(ipaddr.MustParse("2001:db8:0:2000::1")) {
		t.Fatal("conforming address should match")
	}
	if tpl.Matches(ipaddr.MustParse("2001:db8:0:2000::2")) {
		t.Fatal("wrong pinned nybble should not match")
	}
	if tpl.Matches(ipaddr.MustParse("2001:db8:0:5000::1")) {
		t.Fatal("disallowed variable value should not match")
	}
}

func TestAllowSingleValueBecomesPin(t *testing.T) {
	var tpl Template
	tpl.Allow(5, 7)
	if tpl.VarMask[5] != 0 || tpl.Fixed[5] != 7 {
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
			tpl.AllowMask(pos, uint16(r.Intn(1<<16))|1) // never zero
		}
		for i := 0; i < 20; i++ {
			if !tpl.Matches(tpl.Random(rng)) {
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
	tpl.Allow(30, 0, 1)
	tpl.Allow(31, 0, 1, 2, 3)
	if got := tpl.Size(); got != 8 {
		t.Fatalf("Size = %v, want 8", got)
	}
	addrs := tpl.Enumerate(100)
	if len(addrs) != 8 {
		t.Fatalf("Enumerate returned %d", len(addrs))
	}
	seen := ipaddr.NewSet(addrs...)
	if seen.Len() != 8 {
		t.Fatal("Enumerate produced duplicates")
	}
	for _, a := range addrs {
		if !tpl.Matches(a) {
			t.Fatalf("enumerated %v does not match", a)
		}
	}
	// Cap respected.
	if got := tpl.Enumerate(3); len(got) != 3 {
		t.Fatalf("capped Enumerate returned %d", len(got))
	}
}

func TestTemplateVariablePositionsAndString(t *testing.T) {
	p := ipaddr.MustParsePrefix("2001:db8::/32")
	tpl := baseTemplate(p)
	tpl.Allow(31, 0, 1)
	tpl.AllowMask(30, 0xffff)
	vp := tpl.VariablePositions()
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
// definition, Template.Matches. A template starts from TemplateFromPrefix
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
		tpl := TemplateFromPrefix(ipaddr.PrefixFrom(base, int(bits)%129))
		for i := 0; i < len(shape) && i < ipaddr.NybbleCount; i++ {
			switch b := shape[i]; b & 3 {
			case 0:
				tpl.VarMask[i], tpl.Fixed[i] = 0, b>>4
				if b&4 != 0 {
					tpl.Fixed[i] = b
				}
			case 1:
				tpl.VarMask[i] = 0xffff
			case 2:
				tpl.VarMask[i] = uint16(rng.Uint32())
				tpl.Fixed[i] = byte(rng.Intn(16))
			}
		}
		m := tpl.compile()
		check := func(a ipaddr.Addr) {
			if got, want := m.matches(a), tpl.Matches(a); got != want {
				t.Fatalf("template with fixed %x, masks %x: compiled matcher says %v for %s, Matches says %v",
					tpl.Fixed, tpl.VarMask, got, a, want)
			}
		}
		for k := 0; k < 4; k++ {
			a := tpl.Random(rng)
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
