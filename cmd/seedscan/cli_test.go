package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
)

// TestCLI pins every command's flags, as the table builds them, to
// cli.txt: a flag added, removed, retyped, re-defaulted or re-worded fails
// here with the lines to change; edit cli.txt to match, so the change
// shows in review as a diff of that file.
func TestCLI(t *testing.T) {
	var lines []string
	for _, c := range commands {
		fs, _, _ := c.flagSet()
		lines = append(lines, profile.CLILines(c.name, fs)...)
	}
	if err := profile.DiffCLI("cli.txt", lines); err != nil {
		t.Error(err)
	}
}

// TestExitStatus: a command line refused before anything starts exits 2
// with the usage text on stderr and nothing on stdout, help exits 0 and a
// run that fails exits 1.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"world", "-nosuch"}, 2},
		{[]string{"world", "-ases", "many"}, 2},
		// An unknown name for each flag that names something.
		{append([]string{"collect", "-source", "NotASource"}, smallEnv...), 2},
		{[]string{"run", "-proto", "gopher"}, 2},
		{[]string{"run", "-tga", "9Tree"}, 2},
		{[]string{"run", "-seeds", "everything"}, 2},
		{[]string{"dealias", "-mode", "sideways"}, 2},
		// One past each range edge.
		{[]string{"world", "-ases", "0"}, 2},
		{[]string{"world", "-ases", "-3"}, 2},
		{[]string{"collect", "-scale", "0"}, 2},
		{[]string{"collect", "-scale", "NaN"}, 2},
		{[]string{"collect", "-scale", "Inf"}, 2},
		{[]string{"collect", "-show", "-1"}, 2},
		{[]string{"run", "-budget", "0"}, 2},
		{[]string{"run", "-budget", "1073741825"}, 2}, // ipaddr.MaxSetLen + 1
		{[]string{"scan", "-cluster-workers", "-2"}, 2},
		{[]string{"build-db", "-keep", "0"}, 2},
		{[]string{"serve", "-max-bulk", "0"}, 2},
		{[]string{"serve", "-max-walk", "0"}, 2},
		{[]string{"serve", "-watch", "-1s"}, 2},
		{[]string{"daemon", "-epochs", "0"}, 2},
		{[]string{"daemon", "-budget", "-1"}, 2},
		{[]string{"daemon", "-keep", "0"}, 2},
		{[]string{"daemon", "-stale-after", "0"}, 2},
		{[]string{"daemon", "-stable-every", "0"}, 2},
		{[]string{"daemon", "-alpha", "0"}, 2},
		{[]string{"daemon", "-alpha", "7"}, 2},
		// A wire section that does not parse.
		{[]string{"scan", "-wire-faults", "loss=2"}, 2},
		{[]string{"daemon", "-wire-shape", "jitter=0.1"}, 2},
		{[]string{"help"}, 0},
		{[]string{"world", "-h"}, 0},
		{[]string{"dealias", "-trace", filepath.Join(t.TempDir(), "no", "such", "dir")}, 1},
	} {
		var got int
		stdout, stderr := outputOf(t, func() { got = run(c.args) })
		if got != c.want {
			t.Errorf("seedscan %q: exit %d, want %d\n%s", c.args, got, c.want, stderr)
		} else if got == 2 && (stdout != "" || !strings.Contains(strings.ToLower(stderr), "usage")) {
			t.Errorf("seedscan %q: exit 2 with stdout %q and no usage text on stderr:\n%s", c.args, stdout, stderr)
		}
	}
}

// TestHelpNamesTypes: -h names each flag by its type, as cli.txt does,
// also for flags whose values fs.Parse checks, and leaves out a zero
// default as the flag package does for its own types.
func TestHelpNamesTypes(t *testing.T) {
	help := func(name string) string {
		var code int
		_, stderr := outputOf(t, func() { code = run([]string{name, "-h"}) })
		if code != 0 {
			t.Fatalf("seedscan %s -h: exit %d", name, code)
		}
		return stderr
	}
	if h := help("run"); !strings.Contains(h, "  -ases int\n") || !strings.Contains(h, "  -proto proto.Protocol\n") {
		t.Errorf("seedscan run -h does not name -ases int and -proto proto.Protocol:\n%s", h)
	}
	if h := help("scan"); strings.Contains(h, "(default 0)") || !strings.Contains(h, "  -cluster-workers int\n") {
		t.Errorf("seedscan scan -h prints a zero default or lacks -cluster-workers int:\n%s", h)
	}
}

// TestRefusedRunKeepsTrace: a refused command line exits 2 before the
// lifecycle starts, so an existing -trace file keeps its bytes.
func TestRefusedRunKeepsTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	old := []byte(`{"an":"earlier run"}` + "\n")
	if err := os.WriteFile(trace, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"run", "-seeds", "bogus", "-trace", trace},
		{"run", "-trace", trace, "-proto", "gopher"},
		{"scan", "-trace", trace, "-wire-faults", "loss=2"},
		{"daemon", "-trace", trace, "-epochs", "0"},
	} {
		var code int
		outputOf(t, func() { code = run(args) })
		if b, err := os.ReadFile(trace); code != 2 || err != nil || !bytes.Equal(b, old) {
			t.Fatalf("seedscan %q: exit %d, trace now %q (%v)", args, code, b, err)
		}
	}
}

// parseFlags parses args as command name's flags and runs nothing.
func parseFlags(name string, args ...string) (*flag.FlagSet, error) {
	fs, _, _ := commands[slices.IndexFunc(commands, func(c command) bool { return c.name == name })].flagSet()
	fs.SetOutput(io.Discard)
	return fs, fs.Parse(args)
}

// TestRangeEdgesParse: the value at each range edge parses; one past it
// is refused (TestExitStatus).
func TestRangeEdgesParse(t *testing.T) {
	for _, args := range [][]string{
		{"world", "-ases", "1"},
		{"collect", "-show", "0", "-scale", "1e-9"},
		{"run", "-budget", "1"},
		{"run", "-budget", "1073741824"},
		{"scan", "-cluster-workers", "0"},
		{"serve", "-max-bulk", "1", "-max-walk", "1", "-watch", "0"},
		{"daemon", "-epochs", "1", "-budget", "0", "-keep", "1", "-stale-after", "1", "-stable-every", "1", "-alpha", "1", "-wire-faults", "loss=0"},
	} {
		if _, err := parseFlags(args[0], args[1:]...); err != nil {
			t.Errorf("seedscan %q: %v", args, err)
		}
	}
}

// traceMetrics reads the JSONL trace at path and returns the snapshot its
// last event, the final metrics event, carries.
func traceMetrics(t *testing.T, path string) telemetry.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Metrics == nil {
		t.Fatalf("%s: %d events, the last not a metrics event", path, len(evs))
	}
	return *evs[len(evs)-1].Metrics
}

// TestMetricsFlag: -metrics prints the final metric values to stdout
// after the command's own output.
func TestMetricsFlag(t *testing.T) {
	var err error
	b, _ := outputOf(t, func() {
		err = execute(context.Background(), "dealias", append([]string{"-metrics"}, smallEnv...)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, metrics, ok := strings.Cut(string(b), "dealiasing:"); !ok || !regexp.MustCompile(`(?m)^telemetry metrics$[\s\S]*^\s+alias\.probes_sent\s+[1-9]`).MatchString(metrics) {
		t.Fatalf("no alias.probes_sent count after the dealias summary:\n%s", b)
	}
}

// outputOf returns what f writes to os.Stdout and os.Stderr.
func outputOf(t *testing.T, f func()) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i := range files {
		out, err := os.CreateTemp(dir, "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		files[i] = out
	}
	stdoutWas, stderrWas := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	f()
	os.Stdout, os.Stderr = stdoutWas, stderrWas
	var got [2]string
	for i, out := range files {
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		got[i] = string(b)
	}
	return got[0], got[1]
}

// TestRunSeedsName: run takes -seeds through experiment.ParseTreatment,
// so a protocol spelled as -proto spells it runs the canonical treatment,
// and an unknown name exits 2 before the environment is built or the
// running line printed.
func TestRunSeedsName(t *testing.T) {
	var code int
	out, _ := outputOf(t, func() {
		code = run(append([]string{"run", "-seeds", "port-active:tcp443", "-budget", "300"}, smallEnv...))
	})
	if code != 0 || !strings.Contains(out, `seed treatment "port-active:TCP443"`) {
		t.Fatalf("-seeds port-active:tcp443: exit %d, output:\n%s", code, out)
	}
	out, _ = outputOf(t, func() {
		code = run(append([]string{"run", "-seeds", "port-active:gopher"}, smallEnv...))
	})
	if code != 2 || out != "" {
		t.Fatalf("-seeds port-active:gopher: exit %d, want 2 with no output; output:\n%s", code, out)
	}
}

// TestCollectSeedFlag: -seed picks the world, so another seed collects
// another dataset.
func TestCollectSeedFlag(t *testing.T) {
	dir := t.TempDir()
	collect := func(name string, extra ...string) *seeds.Dataset {
		path := filepath.Join(dir, name)
		args := append([]string{"-source", "Scamper", "-o", path}, append(extra, smallEnv...)...)
		if err := execute(context.Background(), "collect", args...); err != nil {
			t.Fatal(err)
		}
		ds, err := seeds.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := collect("default.txt"), collect("seed7.txt", "-seed", "7")
	if a.Len() == 0 || b.Len() == 0 || a.Intersect(b, "").Len() == a.Len() {
		t.Fatalf("seed 42 collected %d addresses and seed 7 %d, %d shared", a.Len(), b.Len(), a.Intersect(b, "").Len())
	}
}

// TestScanClusterWorkers: -cluster-workers fans the scan out over an
// in-process pool, whose shard counters the -trace file's final metrics
// show; a plain scan has none. The -wire-* chain reaches the pool's
// workers: its tap and seeded faults count what the plain scan's do.
func TestScanClusterWorkers(t *testing.T) {
	dir := t.TempDir()
	counters := func(extra ...string) map[string]int64 {
		trace := filepath.Join(dir, "scan.jsonl")
		args := append(append([]string{"-source", "Umbrella", "-trace", trace,
			"-wire-taps", "-wire-faults", "loss=0.3,dup=0.05"}, extra...), smallEnv...)
		if err := execute(context.Background(), "scan", args...); err != nil {
			t.Fatal(err)
		}
		return traceMetrics(t, trace).Counters
	}
	plain, pooled := counters(), counters("-cluster-workers", "2")
	if s, ps := plain["cluster.shards.completed"], pooled["cluster.shards.completed"]; s != 0 || ps == 0 {
		t.Fatalf("%d shards completed without -cluster-workers and %d with it, want none and some", s, ps)
	}
	for _, name := range []string{"wire.tap.probes", "wire.faults.dropped", "wire.faults.duplicated"} {
		if pooled[name] == 0 || pooled[name] != plain[name] {
			t.Errorf("%s: %d with -cluster-workers, %d without; want equal and non-zero", name, pooled[name], plain[name])
		}
	}
}

// TestRunCheckpoint: with -checkpoint the run is a grid cell in the store,
// so a rerun loads it instead of running it.
func TestRunCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "cells.jsonl")
	for i, want := range []struct{ run, resumed int64 }{{1, 0}, {0, 1}} {
		trace := filepath.Join(dir, "run.jsonl")
		args := append([]string{"-budget", "1500", "-checkpoint", store, "-trace", trace}, smallEnv...)
		if err := execute(context.Background(), "run", args...); err != nil {
			t.Fatal(err)
		}
		c := traceMetrics(t, trace).Counters
		if c["grid.cells.run"] != want.run || c["grid.cells.resumed"] != want.resumed {
			t.Fatalf("run %d: %d cells run and %d resumed, want %d and %d",
				i+1, c["grid.cells.run"], c["grid.cells.resumed"], want.run, want.resumed)
		}
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestServeFlags: serve answers on -addr, swaps in a new generation within
// -watch, and holds /v1/bulk to -max-bulk addresses and /v1/prefix-walk to
// -max-walk records.
func TestServeFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := execute(context.Background(), "build-db", append([]string{"-dir", dir}, smallEnv...)...); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- execute(ctx, "serve", "-dir", dir, "-addr", addr, "-watch", "20ms", "-max-bulk", "2", "-max-walk", "1")
	}()
	base := "http://" + addr
	waitGeneration(t, base, 1)

	writer, err := hitlistdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Publish(writer.Current().Snapshot()); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, base, 2)

	for n, want := range map[int]int{2: http.StatusOK, 3: http.StatusRequestEntityTooLarge} {
		body := `{"addrs":["2001:db8::1"` + strings.Repeat(`,"2001:db8::1"`, n-1) + `]}`
		resp, err := http.Post(base+"/v1/bulk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("bulk of %d addresses under -max-bulk 2: status %d, want %d", n, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(base + "/v1/prefix-walk?prefix=::/0")
	if err != nil {
		t.Fatal(err)
	}
	var walk bytes.Buffer
	walk.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := strings.Count(walk.String(), `"addr"`); got != 1 || !strings.Contains(walk.String(), `"truncated":true`) {
		t.Errorf("walk of ::/0 under -max-walk 1 returned %d records: %s", got, walk.String())
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve exited with %v", err)
	}
	if err := execute(context.Background(), "serve", "-dir", dir, "-watch", "-1s"); err == nil {
		t.Fatal("serve accepted a negative -watch")
	}
}

// TestDaemonTuning: each tuning flag moves the daemon's final metrics
// away from a default run's — -stale-after 1 confirms more addresses
// stale, -stable-every 1 re-scans everything every epoch, and a small
// -alpha keeps flapping addresses out of the probe-every-epoch class.
func TestDaemonTuning(t *testing.T) {
	dir := t.TempDir()
	daemon := func(name string, extra ...string) telemetry.Snapshot {
		trace := filepath.Join(dir, name+".jsonl")
		args := daemonArgs(filepath.Join(dir, name), "", append(extra, "-trace", trace)...)
		if err := execute(context.Background(), "daemon", args...); err != nil {
			t.Fatal(err)
		}
		return traceMetrics(t, trace)
	}
	base := daemon("default")
	if got := daemon("stale-after", "-stale-after", "1").Gauges["longitudinal.stale.confirmed"]; got <= base.Gauges["longitudinal.stale.confirmed"] {
		t.Errorf("-stale-after 1 confirmed %v stale, the default %v", got, base.Gauges["longitudinal.stale.confirmed"])
	}
	if got := daemon("stable-every", "-stable-every", "1").Counters["longitudinal.probes.saved"]; got != 0 || base.Counters["longitudinal.probes.saved"] == 0 {
		t.Errorf("-stable-every 1 saved %d probes, the default %d; want none and some", got, base.Counters["longitudinal.probes.saved"])
	}
	if got := daemon("alpha", "-alpha", "0.01").Counters["longitudinal.probes.sent"]; got >= base.Counters["longitudinal.probes.sent"] {
		t.Errorf("-alpha 0.01 sent %d probes, the default %d", got, base.Counters["longitudinal.probes.sent"])
	}
}
