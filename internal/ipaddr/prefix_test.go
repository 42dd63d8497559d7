package ipaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrefixParseAndString(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 {
		t.Fatalf("Bits = %d", p.Bits())
	}
	if got := p.String(); got != "2001:db8::/32" {
		t.Fatalf("String = %q", got)
	}
	// Address must be masked on construction.
	q := MustParsePrefix("2001:db8:ffff::1/32")
	if q != p {
		t.Fatalf("masking failed: %v != %v", q, p)
	}
}

func TestPrefixParseErrors(t *testing.T) {
	for _, s := range []string{
		"2001:db8::", "2001:db8::/129", "2001:db8::/-1", "1.2.3.0/24", "x/32", "2001:db8::/",
		"2001:db8::1%x/64", "2001:db8::/+64", "2001:db8::/-0", "2001:db8::1/064",
	} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if !p.Contains(MustParse("2001:db8:1234::1")) {
		t.Error("should contain inside address")
	}
	if p.Contains(MustParse("2001:db9::1")) {
		t.Error("should not contain outside address")
	}
	all := MustParsePrefix("::/0")
	if !all.Contains(MustParse("ffff::")) {
		t.Error("/0 contains everything")
	}
	host := PrefixFrom(MustParse("2001:db8::1"), 128)
	if !host.Contains(MustParse("2001:db8::1")) || host.Contains(MustParse("2001:db8::2")) {
		t.Error("/128 containment wrong")
	}
}

func TestPrefixContainsPrefixAndOverlaps(t *testing.T) {
	a := MustParsePrefix("2001:db8::/32")
	b := MustParsePrefix("2001:db8:1::/48")
	c := MustParsePrefix("2001:db9::/48")
	if !a.ContainsPrefix(b) || b.ContainsPrefix(a) {
		t.Error("ContainsPrefix wrong")
	}
	if !a.overlaps(b) || !b.overlaps(a) || a.overlaps(c) {
		t.Error("Overlaps wrong")
	}
}

func TestPrefixLast(t *testing.T) {
	p := MustParsePrefix("2001:db8::/126")
	if got := p.Last(); got != MustParse("2001:db8::3") {
		t.Fatalf("Last = %v", got)
	}
	if got := MustParsePrefix("::/0").Last(); got != AddrFrom64s(^uint64(0), ^uint64(0)) {
		t.Fatalf("Last(/0) = %v", got)
	}
	host := PrefixFrom(MustParse("::5"), 128)
	if host.Last() != MustParse("::5") {
		t.Fatal("Last(/128) should be itself")
	}
}

func TestRandomWithinStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range []string{"::/0", "2001:db8::/32", "2001:db8::/64", "2001:db8::/96", "2001:db8::1/128"} {
		p := MustParsePrefix(s)
		for i := 0; i < 100; i++ {
			a := p.RandomWithin(rng)
			if !p.Contains(a) {
				t.Fatalf("RandomWithin(%s) produced %v outside prefix", s, a)
			}
		}
	}
}

func TestOverlayProperty(t *testing.T) {
	f := func(phi, plo, hhi, hlo uint64, bits uint8) bool {
		b := int(bits) % 129
		p := PrefixFrom(AddrFrom64s(phi, plo), b)
		a := p.Overlay(AddrFrom64s(hhi, hlo))
		return p.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParentChild(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	l, r := p.child(0), p.child(1)
	if l.Bits() != 33 || r.Bits() != 33 {
		t.Fatal("child bits wrong")
	}
	if l == r {
		t.Fatal("children identical")
	}
	if l.parent() != p || r.parent() != p {
		t.Fatal("Parent(Child) != self")
	}
	if !p.ContainsPrefix(l) || !p.ContainsPrefix(r) {
		t.Fatal("children not contained")
	}
	if MustParsePrefix("::/0").parent() != MustParsePrefix("::/0") {
		t.Fatal("Parent of /0 should be /0")
	}
}

func TestNumAddrsCapped(t *testing.T) {
	if got := MustParsePrefix("2001:db8::/120").numAddrsCapped(); got != 256 {
		t.Fatalf("/120 = %d", got)
	}
	if got := MustParsePrefix("2001:db8::/64").numAddrsCapped(); got != 1<<63-1 {
		t.Fatalf("/64 should saturate, got %d", got)
	}
	if got := PrefixFrom(Addr{}, 128).numAddrsCapped(); got != 1 {
		t.Fatalf("/128 = %d", got)
	}
}

func TestChildPartitionProperty(t *testing.T) {
	// Every address in p is in exactly one of p.Child(0), p.Child(1).
	f := func(phi, plo, ahi, alo uint64, bits uint8) bool {
		b := int(bits) % 128 // < 128 so Child is legal
		p := PrefixFrom(AddrFrom64s(phi, plo), b)
		a := p.Overlay(AddrFrom64s(ahi, alo))
		in0 := p.child(0).Contains(a)
		in1 := p.child(1).Contains(a)
		return in0 != in1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// overlaps reports whether p and q share any address.
func (p Prefix) overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// parent returns the prefix one bit shorter. Parent of /0 is /0.
func (p Prefix) parent() Prefix {
	if p.bits == 0 {
		return p
	}
	return PrefixFrom(p.addr, int(p.bits)-1)
}

// child returns the left (bit==0) or right (bit==1) half of p. It panics if
// p is already /128.
func (p Prefix) child(bit byte) Prefix {
	if int(p.bits) >= 128 {
		panic("ipaddr: Child of /128")
	}
	a := p.addr
	if bit&1 == 1 {
		a = a.withBit(int(p.bits), 1)
	}
	return Prefix{addr: a, bits: p.bits + 1}
}

// numAddrsCapped returns the number of addresses in p, capped at 2^63-1 so
// it fits an int64 (a /65 or shorter saturates).
func (p Prefix) numAddrsCapped() int64 {
	host := 128 - int(p.bits)
	if host >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(host)
}
