package scanner

import (
	"bytes"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
)

func TestLoadBlocklist(t *testing.T) {
	in := `
# opt-out ranges
2001:db8::/32      # research prefix
2600:9000::1       # single host opt-out

fe80::/10
`
	bl, err := LoadBlocklist(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	set := blocklistSettings(bl)
	cases := []struct {
		addr string
		want bool
	}{
		{"2001:db8:1234::1", true},
		{"2600:9000::1", true},
		{"2600:9000::2", false},
		{"fe80::abcd", true},
		{"2607::1", false},
	}
	for _, c := range cases {
		if got := set.blocked(ipaddr.MustParse(c.addr)); got != c.want {
			t.Errorf("blocked(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

// blocklistSettings resolves WithBlocklist(prefixes) as a Scanner would.
func blocklistSettings(prefixes []ipaddr.Prefix) *settings {
	s := defaultSettings()
	WithBlocklist(prefixes)(&s)
	return &s
}

func TestLoadBlocklistErrors(t *testing.T) {
	long := "2001:db8::/32 # " + strings.Repeat("x", 70000) + "\n" // past bufio's line limit
	for _, in := range []string{"not-an-address\n", "2001:db8::/200\n", "1.2.3.0/24\n", long} {
		if _, err := LoadBlocklist(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestBlocklistIntegratesWithScan(t *testing.T) {
	w := testWorld(t)
	bl, err := LoadBlocklist(strings.NewReader("2000::/3\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(w.Link(), WithSecret(9), WithBlocklist(bl))
	samp := w.NewSampler(99)
	targets := samp.Hosts(50)
	res := s.Scan(targets, 0)
	for _, r := range res {
		if r.Status != StatusBlocked {
			t.Fatalf("%v not blocked", r.Addr)
		}
	}
	if s.Stats().PacketsSent.Load() != 0 {
		t.Fatal("packets escaped the blocklist")
	}
}

// FuzzLoadBlocklist feeds LoadBlocklist a file an operator wrote. It must
// not panic, and a list it accepts must block every entry end to end: a
// prefix from its first address to its last, a bare address as its /128,
// checked through the table WithBlocklist builds. The seed corpus is under
// testdata/fuzz/.
func FuzzLoadBlocklist(f *testing.F) {
	f.Add([]byte("# opt-out ranges\n2001:db8::/32 # research\n2600:9000::1\n\nfe80::/10"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bl, err := LoadBlocklist(bytes.NewReader(data))
		if err != nil {
			return
		}
		set := blocklistSettings(bl)
		for _, line := range strings.Split(string(data), "\n") {
			line, _, _ = strings.Cut(line, "#")
			if line = strings.TrimSpace(line); line == "" {
				continue
			}
			p, err := ipaddr.ParsePrefix(line)
			if !strings.Contains(line, "/") {
				var a ipaddr.Addr
				a, err = ipaddr.Parse(line)
				p = ipaddr.PrefixFrom(a, 128)
			}
			if err != nil {
				t.Fatalf("accepted list holds entry %q: %v", line, err)
			}
			if !set.blocked(p.Addr()) || !set.blocked(p.Last()) {
				t.Fatalf("entry %q: %v is not blocked end to end", line, p)
			}
		}
	})
}
