package scanner

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"seedscan/internal/ipaddr"
)

// Blocklist support. The paper's ethics appendix stresses that scanners
// must honour opt-out requests — and notes that 6Scan's scanner shipped
// without blocklisting, which the authors had to add. Here blocklists are
// first-class: a prefix table consulted before any probe leaves the
// scanner.

// LoadBlocklist parses a blocklist in ZMap's conf format: one IPv6 prefix
// or address per line, '#' comments and blank lines ignored. Bare
// addresses block exactly that /128. Pass the result to WithBlocklist.
func LoadBlocklist(r io.Reader) ([]ipaddr.Prefix, error) {
	var prefixes []ipaddr.Prefix
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.ContainsRune(line, '/') {
			p, err := ipaddr.ParsePrefix(line)
			if err != nil {
				return nil, fmt.Errorf("scanner: blocklist line %d: %w", lineNo, err)
			}
			prefixes = append(prefixes, p)
			continue
		}
		a, err := ipaddr.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("scanner: blocklist line %d: %w", lineNo, err)
		}
		prefixes = append(prefixes, ipaddr.PrefixFrom(a, 128))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scanner: blocklist: %w", err)
	}
	return prefixes, nil
}
