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
