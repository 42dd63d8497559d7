package seeds

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadFrom feeds ReadFrom arbitrary bytes under an arbitrary dataset
// name. It must never panic, and whatever it accepts must survive WriteTo
// and ReadFrom again as the same set of addresses: a dataset this package
// writes is always one it can read back, whatever it is called. The
// committed corpus (testdata/fuzz) holds CRLF line ends, a zoned address,
// duplicates, a name with a newline in it and a comment line longer than
// bufio.Scanner's default limit.
func FuzzReadFrom(f *testing.F) {
	f.Add([]byte("# header\n2001:db8::1\n\n2001:db8::2\n"), "plain")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		d, err := ReadFrom(name, bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(name, &buf)
		if err != nil {
			t.Fatalf("a written dataset was rejected: %v", err)
		}
		if !slices.Equal(back.Addrs.Sorted(), d.Addrs.Sorted()) {
			t.Fatalf("round trip read %d addresses, wrote %d", back.Len(), d.Len())
		}
	})
}

// FuzzReadPrefixes is FuzzReadFrom for prefix lists: an accepted list
// round-trips through WritePrefixes unchanged, order and duplicates kept.
func FuzzReadPrefixes(f *testing.F) {
	f.Add([]byte("# aliased\n2001:db8::/32\n2600:9000:1::/48\n"))
	f.Add([]byte("2001:db8::1/32\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := ReadPrefixes(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePrefixes(&buf, ps); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPrefixes(&buf)
		if err != nil {
			t.Fatalf("a written prefix list was rejected: %v", err)
		}
		if !slices.Equal(back, ps) {
			t.Fatalf("round trip read %v, wrote %v", back, ps)
		}
	})
}
