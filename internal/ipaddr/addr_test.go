package ipaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"::",
		"::1",
		"2001:db8::1",
		"2600:9000:2000::ffff",
		"fe80::1:2:3:4",
		"2001:db8:1234:5678:9abc:def0:1234:5678",
	}
	for _, s := range cases {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, s := range []string{"", "1.2.3.4", "::ffff:1.2.3.4", "nonsense", "2001:db8::/32", "2001:db8::1%x", "fe80::1%eth0"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestNybbleAccess(t *testing.T) {
	a := MustParse("2001:db8:1234:5678:9abc:def0:1234:5678")
	want := "20010db8123456789abcdef012345678"
	if got := a.FullHex(); got != want {
		t.Fatalf("FullHex = %q, want %q", got, want)
	}
	for i := 0; i < NybbleCount; i++ {
		want := hexVal(want[i])
		if got := a.Nybble(i); got != want {
			t.Errorf("Nybble(%d) = %x, want %x", i, got, want)
		}
	}
}

func hexVal(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

func TestWithNybbleRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, idx uint8, val uint8) bool {
		a := AddrFrom64s(hi, lo)
		i := int(idx) % NybbleCount
		v := val & 0xf
		b := a.WithNybble(i, v)
		if b.Nybble(i) != v {
			return false
		}
		// All other nybbles unchanged.
		for j := 0; j < NybbleCount; j++ {
			if j != i && a.Nybble(j) != b.Nybble(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, idx uint8, val uint8) bool {
		a := AddrFrom64s(hi, lo)
		i := int(idx) % 128
		v := val & 1
		b := a.withBit(i, v)
		if b.bit(i) != v {
			return false
		}
		for j := 0; j < 128; j++ {
			if j != i && a.bit(j) != b.bit(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAs16RoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFrom64s(hi, lo)
		return AddrFrom16(a.As16()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"::", "::", 128},
		{"8000::", "::", 0},
		{"2001:db8::", "2001:db8::1", 127},
		{"2001:db8::", "2001:db9::", 31},
		{"2001:db8::", "2001:db8:0:1::", 63},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.CommonPrefixLen(b); got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := b.CommonPrefixLen(a); got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestCommonPrefixLenMatchesBits(t *testing.T) {
	f := func(hi, lo uint64, flipIdx uint8) bool {
		a := AddrFrom64s(hi, lo)
		i := int(flipIdx) % 128
		b := a.withBit(i, a.bit(i)^1)
		return a.CommonPrefixLen(b) <= i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddLoCarry(t *testing.T) {
	a := AddrFrom64s(1, ^uint64(0))
	b := a.AddLo(1)
	if b.Hi() != 2 || b.Lo() != 0 {
		t.Fatalf("AddLo carry: got hi=%d lo=%d", b.Hi(), b.Lo())
	}
}

func TestCompareAndLess(t *testing.T) {
	a := MustParse("2001:db8::1")
	b := MustParse("2001:db8::2")
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less ordering wrong")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("Compare wrong")
	}
}

func TestNybbleDistance(t *testing.T) {
	a := MustParse("2001:db8::1")
	if d := a.NybbleDistance(a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	b := a.WithNybble(31, a.Nybble(31)^0xf).WithNybble(0, a.Nybble(0)^1)
	if d := a.NybbleDistance(b); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func TestNybbleDistanceMatchesPerPosition(t *testing.T) {
	// same selects the positions forced equal, so that distances across the
	// whole range 0..32 are drawn, not only the near-32 of two random
	// addresses.
	f := func(ahi, alo, bhi, blo uint64, same uint32) bool {
		a, b := AddrFrom64s(ahi, alo), AddrFrom64s(bhi, blo)
		for i := 0; i < NybbleCount; i++ {
			if same&(1<<i) != 0 {
				b = b.WithNybble(i, a.Nybble(i))
			}
		}
		want := 0
		for i := 0; i < NybbleCount; i++ {
			if a.Nybble(i) != b.Nybble(i) {
				want++
			}
		}
		return a.NybbleDistance(b) == want && b.NybbleDistance(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestXorZeroIdentity(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFrom64s(hi, lo)
		return a.xor(a).IsZero() && a.xor(Addr{}) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNybble(b *testing.B) {
	a := MustParse("2001:db8:1234:5678:9abc:def0:1234:5678")
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += a.Nybble(i & 31)
	}
	_ = sink
}

func BenchmarkFullHex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = AddrFrom64s(rng.Uint64(), rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = addrs[i&1023].FullHex()
	}
}

// bit returns bit i of the address (0 = most significant, 127 = least).
func (a Addr) bit(i int) byte {
	if i < 64 {
		return byte(a.hi >> uint(63-i) & 1)
	}
	return byte(a.lo >> uint(127-i) & 1)
}

// xor returns the bitwise exclusive-or of two addresses.
func (a Addr) xor(b Addr) Addr { return Addr{hi: a.hi ^ b.hi, lo: a.lo ^ b.lo} }
