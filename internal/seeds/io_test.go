package seeds

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
)

func TestDatasetWriteReadRoundTrip(t *testing.T) {
	d := FromAddrs("round-trip", addrsOf("2001:db8::1", "2001:db8::2", "fe80::1"))
	var buf bytes.Buffer
	if _, err := d.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom("in", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Addrs.Diff(d.Addrs).Len() != 0 {
		t.Fatalf("round trip lost addresses: %d vs %d", got.Len(), d.Len())
	}
}

func addrsOf(ss ...string) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(ss))
	for i, s := range ss {
		out[i] = ipaddr.MustParse(s)
	}
	return out
}

func TestReadFromSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n2001:db8::1\n  \n# trailing\n2001:db8::2\n"
	d, err := ReadFrom("x", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestReadFromReportsLineNumbers(t *testing.T) {
	in := "2001:db8::1\nnot-an-address\n"
	_, err := ReadFrom("bad", strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	d := FromAddrs("files", addrsOf("2001:db8::1", "2600:9000::42"))
	for _, name := range []string{"plain.txt", "compressed.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := d.WriteFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 2 {
			t.Fatalf("%s: len = %d", name, got.Len())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestPrefixListRoundTrip(t *testing.T) {
	in := []ipaddr.Prefix{
		ipaddr.MustParsePrefix("2001:db8::/32"),
		ipaddr.MustParsePrefix("2600:9000:1::/48"),
	}
	var buf bytes.Buffer
	if err := WritePrefixes(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPrefixes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("round trip = %v", got)
	}
}

func TestReadPrefixesRejectsGarbage(t *testing.T) {
	if _, err := ReadPrefixes(strings.NewReader("2001:db8::/32\ngarbage\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestWrittenFileIsSortedWithHeader(t *testing.T) {
	d := FromAddrs("sorted", addrsOf("2001:db8::9", "2001:db8::1"))
	var buf bytes.Buffer
	if _, err := d.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "#") {
		t.Fatal("missing header comment")
	}
	if lines[1] != "2001:db8::1" || lines[2] != "2001:db8::9" {
		t.Fatalf("not sorted: %v", lines[1:])
	}
}

func TestWriteToQuotesName(t *testing.T) {
	d := FromAddrs("a\nb", addrsOf("2001:db8::1"))
	var buf bytes.Buffer
	if _, err := d.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom("in", &buf)
	if err != nil {
		t.Fatalf("a dataset named with a newline was written unreadably: %v", err)
	}
	if back.Len() != 1 {
		t.Fatalf("len = %d", back.Len())
	}
}

func TestReadersShareLineLimit(t *testing.T) {
	// Beyond bufio.Scanner's default 64 KiB token and within the 1 MiB
	// limit: both readers skip the comment.
	long := "#" + strings.Repeat("x", 70000) + "\n"
	if _, err := ReadFrom("long", strings.NewReader(long+"2001:db8::1\n")); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if _, err := ReadPrefixes(strings.NewReader(long + "2001:db8::/32\n")); err != nil {
		t.Fatalf("ReadPrefixes: %v", err)
	}
	// Beyond the limit, both name the line.
	tooLong := "\n#" + strings.Repeat("x", maxLine) + "\n"
	if _, err := ReadFrom("long", strings.NewReader(tooLong)); err == nil || !strings.HasPrefix(err.Error(), "seeds: long line 2: ") {
		t.Fatalf("ReadFrom err = %v", err)
	}
	if _, err := ReadPrefixes(strings.NewReader(tooLong)); err == nil || !strings.HasPrefix(err.Error(), "seeds: prefix list line 2: ") {
		t.Fatalf("ReadPrefixes err = %v", err)
	}
}
