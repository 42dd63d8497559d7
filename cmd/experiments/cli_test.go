package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/telemetry"
)

// TestCLI pins the command's flags to cli.txt: a flag added, removed,
// retyped, re-defaulted or re-worded fails here with the lines to change;
// edit cli.txt to match, so the change shows in review as a diff of that
// file.
func TestCLI(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags(fs)
	if err := profile.DiffCLI("cli.txt", profile.CLILines("experiments", fs)); err != nil {
		t.Error(err)
	}
}

// TestExitStatus: a command line refused before anything starts exits 2
// with the usage text on stderr, nothing on stdout and an existing -trace
// file as it was; -h exits 0 and a run that fails exits 1.
func TestExitStatus(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	old := []byte(`{"an":"earlier run"}` + "\n")
	if err := os.WriteFile(trace, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-nosuch"}, 2},
		{[]string{"-budget", "many"}, 2},
		// An unknown name for each flag that names something.
		{[]string{"-protos", "gopher"}, 2},
		{[]string{"-protos", ""}, 2},
		{[]string{"-gens", "9Tree"}, 2},
		{[]string{"-run", "nosuch"}, 2},
		// One past each range edge.
		{[]string{"-ases", "0"}, 2},
		{[]string{"-ases", "-3"}, 2},
		{[]string{"-scale", "0"}, 2},
		{[]string{"-scale", "-1"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-budget", "0"}, 2},
		{[]string{"-budget", "1073741825"}, 2}, // ipaddr.MaxSetLen + 1
		{[]string{"-cluster-workers", "-2"}, 2},
		{[]string{"-h"}, 0},
		{append(slices.Clone(smallWorld), "-run", "table1", "-trace", filepath.Join(t.TempDir(), "no", "such", "dir")), 1},
	} {
		var stdout, stderr bytes.Buffer
		args := c.args
		if c.want == 2 {
			args = append([]string{"-trace", trace, "-list-cells"}, args...)
		}
		got := run(args, &stdout, &stderr)
		if got != c.want {
			t.Errorf("experiments %q: exit %d, want %d\n%s", args, got, c.want, stderr.String())
		} else if b, _ := os.ReadFile(trace); got == 2 && (stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of experiments") || !bytes.Equal(b, old)) {
			t.Errorf("experiments %q: exit 2 with stdout %q, trace %q and stderr:\n%s", args, stdout.String(), b, stderr.String())
		}
	}
}

// TestSeedFlag: -seed picks the world, so another seed plans the same
// cells over another environment fingerprint.
func TestSeedFlag(t *testing.T) {
	ids, _, fp := parsePlan(t, runCmd(t, "-run", "fig3", "-list-cells"))
	ids7, _, fp7 := parsePlan(t, runCmd(t, "-run", "fig3", "-list-cells", "-seed", "7"))
	if fp == fp7 || !slices.Equal(ids, ids7) {
		t.Fatalf("seeds 42 and 7: fingerprints %s and %s, %d and %d cells", fp, fp7, len(ids), len(ids7))
	}
}

// TestTraceFlag: -trace writes a JSONL event log whose last event carries
// the run's final metrics.
func TestTraceFlag(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "exp.jsonl")
	runCmd(t, "-run", "fig3", "-trace", trace)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 || evs[len(evs)-1].Metrics == nil || evs[len(evs)-1].Metrics.Counters["grid.cells.run"] == 0 {
		t.Fatalf("%d events, the last not a metrics event counting the cells run", len(evs))
	}
}

// TestClusterWorkersFlag: -cluster-workers fans the scans out over an
// in-process pool, whose shard counters -metrics prints, and leaves every
// table as it was.
func TestClusterWorkersFlag(t *testing.T) {
	tables := func(out string) string {
		out, _, _ = strings.Cut(out, "\ndone in ")
		return out
	}
	plain := runCmd(t, "-run", "fig3")
	pooled := runCmd(t, "-run", "fig3", "-cluster-workers", "2", "-metrics")
	if tables(plain) != tables(pooled) {
		t.Fatal("-cluster-workers 2 printed different tables")
	}
	if !regexp.MustCompile(`(?m)^\s+cluster\.shards\.completed\s+[1-9]\d*$`).MatchString(pooled) {
		t.Fatalf("-metrics counts no completed cluster shard:\n%s", pooled)
	}
}
