package seeds

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"seedscan/internal/ipaddr"
)

// Dataset file I/O in the formats the IPv6 measurement community uses:
// one address per line, '#' comments, optional gzip. This is how real
// hitlists (the IPv6 Hitlist service, AddrMiner dumps) ship, so datasets
// produced here interoperate with external tooling and vice versa.

// WriteTo writes the dataset one address per line in sorted order,
// preceded by a comment header. The name is quoted in the header, so no
// name can break it across lines.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintf(bw, "# seedscan dataset: %q (%d addresses)\n", d.Name, d.Len())
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, a := range d.Addrs.Sorted() {
		k, err := fmt.Fprintln(bw, a)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// WriteFile writes the dataset to path; a ".gz" suffix enables gzip.
func (d *Dataset) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("seeds: write %s: %w", path, err)
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if _, err := d.WriteTo(w); err != nil {
		return fmt.Errorf("seeds: write %s: %w", path, err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("seeds: write %s: %w", path, err)
		}
	}
	return f.Close()
}

// maxLine is the longest line, comments included, the readers accept.
const maxLine = 1 << 20

// readLines calls parse with each line of r that is neither blank nor a
// '#' comment, trimmed of surrounding space. Errors, parse's included,
// name what was being read and the line.
func readLines(what string, r io.Reader, parse func(line string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := parse(line); err != nil {
			return fmt.Errorf("seeds: %s line %d: %w", what, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("seeds: %s line %d: %w", what, lineNo+1, err)
	}
	return nil
}

// ReadFrom parses one address per line, skipping blanks and '#' comments.
// Malformed lines are reported with their line number.
func ReadFrom(name string, r io.Reader) (*Dataset, error) {
	d := NewDataset(name)
	err := readLines(name, r, func(line string) error {
		a, err := ipaddr.Parse(line)
		if err == nil {
			d.Addrs.Add(a)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// ReadFile loads a dataset from path; a ".gz" suffix enables gzip.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seeds: read %s: %w", path, err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("seeds: read %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	return ReadFrom(path, r)
}

// WritePrefixes writes a prefix list (one CIDR per line) — the format of
// the IPv6 Hitlist's published aliased-prefix list.
func WritePrefixes(w io.Writer, prefixes []ipaddr.Prefix) error {
	bw := bufio.NewWriter(w)
	for _, p := range prefixes {
		if _, err := fmt.Fprintln(bw, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPrefixes parses a prefix list, skipping blanks and comments.
func ReadPrefixes(r io.Reader) ([]ipaddr.Prefix, error) {
	var out []ipaddr.Prefix
	err := readLines("prefix list", r, func(line string) error {
		p, err := ipaddr.ParsePrefix(line)
		if err == nil {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
