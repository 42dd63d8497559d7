package ipaddr

import (
	"strings"
	"testing"
)

// FuzzParse feeds Parse and ParsePrefix text they did not write (seed
// files, blocklists, serve's query parameters): whatever either accepts
// names no zone, and its String form parses back to the same value.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"2001:db8::1", "::", "2001:db8::/32", "2001:db8:ffff::1/32", "::/0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if a, err := Parse(s); err == nil {
			if strings.Contains(s, "%") {
				t.Fatalf("Parse(%q) accepted a zone", s)
			}
			if back, err := Parse(a.String()); err != nil || back != a {
				t.Fatalf("Parse(%q) = %v; its String parses back to %v, %v", s, a, back, err)
			}
		}
		if p, err := ParsePrefix(s); err == nil {
			if strings.Contains(s, "%") {
				t.Fatalf("ParsePrefix(%q) accepted a zone", s)
			}
			if back, err := ParsePrefix(p.String()); err != nil || back != p {
				t.Fatalf("ParsePrefix(%q) = %v; its String parses back to %v, %v", s, p, back, err)
			}
		}
	})
}

// FuzzLPM checks BuildLPM against linearLookup on prefix lists decoded
// from the input. data[0]'s low bit picks skipBits 0 or 28 and its other
// bits how many of the following 3-byte records are prefixes; the rest are
// probes. A record is a fixed anchor address with up to two bits flipped
// (a flip byte of 128 or more, or inside the skipped bits, flips nothing),
// so lists are dense in nested, overlapping and repeated prefixes: a
// prefix record's first byte is its length mod 129, from /0 to /128, and a
// probe record's first byte is a third flip. Every listed prefix under the
// skipped bits is also probed at its first and last address. The seed
// corpus is under testdata/fuzz/.
func FuzzLPM(f *testing.F) {
	f.Add([]byte{4, 0, 200, 200, 128, 200, 200, 64, 100, 200, 200, 200, 200, 127, 127, 200})
	anchor := MustParse("2001:db8:a5a5:5a5a:f0f0:f0f:1234:5678")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		skipBits, nPrefixes := 28*int(data[0]&1), int(data[0]>>1)
		flip := func(a Addr, k byte) Addr {
			if int(k) < skipBits || k >= 128 {
				return a
			}
			return a.WithBit(int(k), a.Bit(int(k))^1)
		}
		var prefixes []Prefix
		probes := []Addr{anchor}
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			a := flip(flip(anchor, rec[1]), rec[2])
			if len(prefixes) < nPrefixes {
				p := PrefixFrom(a, int(rec[0])%129)
				prefixes = append(prefixes, p)
				if p.Bits() >= skipBits {
					probes = append(probes, p.Addr(), p.Last())
				}
			} else {
				probes = append(probes, flip(a, rec[0]))
			}
		}
		lt := BuildLPM(prefixes, indexValues(len(prefixes)), skipBits)
		for _, a := range probes {
			wantV, wantOK := linearLookup(prefixes, a)
			if gotV, gotOK := lt.Lookup(a); gotOK != wantOK || gotV != wantV {
				t.Fatalf("skip %d, %v, addr %v: lpm = %d, %v; linear = %d, %v",
					skipBits, prefixes, a, gotV, gotOK, wantV, wantOK)
			}
		}
	})
}
