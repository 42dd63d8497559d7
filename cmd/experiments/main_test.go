package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// smallWorld sizes a world that finishes in seconds; two protocols and two
// generators keep every sweep axis longer than one.
var smallWorld = []string{"-ases", "40", "-scale", "0.2", "-budget", "600", "-protos", "icmp,udp53", "-gens", "6Tree,DET"}

// runCmd drives run in-process and fails the test on a non-zero exit.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(slices.Clone(smallWorld), args...), &stdout, &stderr); code != 0 {
		t.Fatalf("experiments %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

var planSummary = regexp.MustCompile(`(\d+) cells planned across \d+ specs, (\d+) unique after dedup(?:, (\d+) already checkpointed \(\*\))?\nfingerprint: (\S+)\n$`)

// parsePlan reads -list-cells output: the ordered unique cell IDs, how many
// of them the resume store already held, and the environment fingerprint.
func parsePlan(t *testing.T, out string) (ids []string, checkpointed int, fingerprint string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if id, _, ok := strings.Cut(line, " <- "); ok {
			ids = append(ids, strings.TrimSpace(strings.TrimPrefix(id, "*")))
		}
	}
	m := planSummary.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no plan summary in:\n%s", out)
	}
	if unique, _ := strconv.Atoi(m[2]); unique != len(ids) {
		t.Fatalf("summary says %d unique cells, %d listed", unique, len(ids))
	}
	checkpointed, _ = strconv.Atoi(m[3])
	return ids, checkpointed, m[4]
}

// TestPlanIsExactlyWhatRuns pins what selectedSpecs once mirrored by hand:
// for every section at once, the unique cells -list-cells plans are exactly
// the cells the run asks the engine to execute — none unplanned, none
// skipped — and a second run over the resume store executes nothing.
func TestPlanIsExactlyWhatRuns(t *testing.T) {
	const sections = "all,raw912,ablation"
	ids, _, fp := parsePlan(t, runCmd(t, "-run", sections, "-list-cells"))
	if len(ids) == 0 {
		t.Fatal("nothing planned")
	}

	dir := t.TempDir()
	counter := func(out, name string) int {
		t.Helper()
		m := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+(\d+)$`).FindStringSubmatch(out)
		if m == nil {
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	first := runCmd(t, "-run", sections, "-resume", dir, "-metrics")

	// Every executed cell was checkpointed under fingerprint/ID. The RQ5
	// daemon's epoch cells run on an engine of its own under a "|rq5time"
	// fingerprint: they depend on tracker state, so they are counted by
	// the same telemetry but are not part of the static plan.
	var ran []string
	epochs := 0
	f, err := os.Open(filepath.Join(dir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		var rec struct{ Key string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if id, ok := strings.CutPrefix(rec.Key, fp+"/"); ok {
			ran = append(ran, id)
		} else if strings.HasPrefix(rec.Key, fp+"|rq5time/") {
			epochs++
		} else {
			t.Fatalf("store record under a foreign key %q", rec.Key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	planned := slices.Clone(ids)
	slices.Sort(planned)
	slices.Sort(ran)
	if !slices.Equal(planned, ran) {
		t.Fatalf("planned %d cells, ran %d:\nplanned %q\nran %q", len(planned), len(ran), planned, ran)
	}
	if ran, resumed := counter(first, "grid.cells.run"), counter(first, "grid.cells.resumed"); ran != len(ids)+epochs || resumed != 0 {
		t.Fatalf("fresh run executed %d cells and resumed %d, want %d planned + %d daemon epochs and 0", ran, resumed, len(ids), epochs)
	}

	if _, checkpointed, _ := parsePlan(t, runCmd(t, "-run", sections, "-resume", dir, "-list-cells")); checkpointed != len(ids) {
		t.Fatalf("-list-cells over the store marks %d of %d cells checkpointed", checkpointed, len(ids))
	}
	second := runCmd(t, "-run", sections, "-resume", dir, "-metrics")
	if ran, resumed := counter(second, "grid.cells.run"), counter(second, "grid.cells.resumed"); ran != 0 || resumed != len(ids)+epochs {
		t.Fatalf("resumed run executed %d cells and resumed %d, want 0 and %d", ran, resumed, len(ids)+epochs)
	}
	strip := func(out string) string {
		out, _, _ = strings.Cut(out, "\ndone in ")
		return out
	}
	if strip(first) != strip(second) {
		t.Fatal("resumed run printed different tables")
	}
}

// TestUnknownSectionIsAUsageError: a -run name the table does not have
// exits 2 naming the valid ones, before any header or scan — with or
// without -list-cells.
func TestUnknownSectionIsAUsageError(t *testing.T) {
	for _, extra := range [][]string{nil, {"-list-cells"}} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-run", "fig3,nosuch"}, extra...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("experiments %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("experiments %v printed %q before refusing", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `"nosuch"`) || !strings.Contains(msg, "all,"+strings.Join(sectionNames(), ",")) {
			t.Fatalf("error does not name the bad and the valid sections: %s", msg)
		}
	}
}

// TestRepeatedAxisIsAUsageError: a -protos or -gens entry named twice
// would print a section's rows twice (or, where a fold keys by name,
// silently once), so it exits 2 naming the entry, before any header or
// scan — with or without -list-cells.
func TestRepeatedAxisIsAUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-protos", "icmp,icmp", "-run", "fig3"}, "ICMP"},
		{[]string{"-protos", "udp53, icmp,UDP53", "-run", "fig3"}, "UDP53"},
		{[]string{"-gens", "6Tree,6Tree", "-run", "table4,fig6"}, "6Tree"},
	} {
		for _, extra := range [][]string{nil, {"-list-cells"}} {
			var stdout, stderr bytes.Buffer
			args := append(append(slices.Clone(smallWorld), tc.args...), extra...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("experiments %v: exit %d, want 2", args, code)
			}
			if stdout.Len() != 0 {
				t.Fatalf("experiments %v printed %q before refusing", args, stdout.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.name+" twice") {
				t.Fatalf("experiments %v: error does not name %s: %s", args, tc.name, msg)
			}
		}
	}
}

// TestProtocolOrderIsCanonical: every section prints the protocols in
// proto.All order, so the order -protos lists them in changes neither the
// tables nor the cell plan.
func TestProtocolOrderIsCanonical(t *testing.T) {
	const sections = "fig3,table6,raw,fig6"
	strip := func(out string) string {
		out, _, _ = strings.Cut(out, "\ndone in ")
		return out
	}
	for _, extra := range [][]string{nil, {"-list-cells"}} {
		args := append([]string{"-run", sections}, extra...)
		icmpFirst := runCmd(t, append([]string{"-protos", "icmp,udp53"}, args...)...)
		udpFirst := runCmd(t, append([]string{"-protos", "udp53,icmp"}, args...)...)
		a, b := strings.Split(strip(icmpFirst), "\n"), strings.Split(strip(udpFirst), "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("experiments %v: line %d is %q under -protos icmp,udp53 but %q under udp53,icmp", args, i+1, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			t.Fatalf("experiments %v: %d lines under -protos icmp,udp53, %d under udp53,icmp", args, len(a), len(b))
		}
	}
}

// TestSelectSections: table order whatever the list's, opt-in sections
// only by name.
func TestSelectSections(t *testing.T) {
	names := func(list string) string {
		t.Helper()
		sel, err := selectSections(list)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range sel {
			out = append(out, s.Name)
		}
		return strings.Join(out, ",")
	}
	if got := names("fig4, table1"); got != "table1,fig4" {
		t.Fatalf("selection = %s", got)
	}
	all := names("all")
	if strings.Contains(all, "raw912") || strings.Contains(all, "ablation") || !strings.Contains(all, "table7") {
		t.Fatalf("all = %s", all)
	}
	if got := names("ablation,all"); got != all+",ablation" {
		t.Fatalf("all plus an opt-in = %s", got)
	}
}

// TestUsageListsEverySection keeps the two places a user reads the -run
// names — the package comment and the flag's help — equal to the table.
func TestUsageListsEverySection(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	list := strings.Join(sectionNames(), ",")
	if doc := strings.Join(strings.Fields(f.Doc.Text()), ""); !strings.Contains(doc, list) {
		t.Fatalf("package comment does not list the sections as %s", list)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if !strings.Contains(stderr.String(), strings.Join(sectionNames(), ", ")) {
		t.Fatalf("-h does not list the sections:\n%s", stderr.String())
	}
}

// TestProfilesAreWritten: -cpuprofile and -memprofile each leave a
// non-empty gzip-compressed pprof profile behind.
func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	runCmd(t, "-run", "table1", "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %d bytes, not gzip: %v", filepath.Base(path), len(b), err)
		}
		if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
			t.Errorf("%s: %d bytes unzipped (%v), want a profile", filepath.Base(path), len(raw), err)
		}
	}
}
