package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"seedscan/internal/seeds"
	"seedscan/internal/wire"
)

// The command functions run end to end against small environments; these
// tests cover argument validation and the success paths (output goes to
// stdout, which `go test` swallows).

var smallEnv = []string{"-ases", "50", "-scale", "0.15"}

func TestCmdWorld(t *testing.T) {
	if err := execute(context.Background(), "world", "-ases", "40"); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCollect(t *testing.T) {
	args := append([]string{"-source", "Scamper", "-show", "1"}, smallEnv...)
	if err := execute(context.Background(), "collect", args...); err != nil {
		t.Fatal(err)
	}
}

// TestCmdCollectEmpty: a scale that collects no address prints the
// counts without a share of nothing.
func TestCmdCollectEmpty(t *testing.T) {
	var err error
	stdout, _ := outputOf(t, func() {
		err = execute(context.Background(), "collect", "-scale", "1e-9", "-ases", "50", "-source", "Scamper")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, " 0 unique addresses") || strings.Contains(stdout, "NaN") {
		t.Fatalf("collect of an empty dataset printed:\n%s", stdout)
	}
}

func TestCmdCollectUnknownSource(t *testing.T) {
	if err := execute(context.Background(), "collect", append([]string{"-source", "NotASource"}, smallEnv...)...); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestCmdCollectExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.txt")
	args := append([]string{"-source", "Umbrella", "-o", out}, smallEnv...)
	if err := execute(context.Background(), "collect", args...); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRun(t *testing.T) {
	args := append([]string{"-tga", "6Tree", "-proto", "icmp", "-budget", "1500", "-seeds", "all-active"}, smallEnv...)
	if err := execute(context.Background(), "run", args...); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunBadArgs(t *testing.T) {
	if err := execute(context.Background(), "run", append([]string{"-proto", "gopher"}, smallEnv...)...); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := execute(context.Background(), "run", append([]string{"-seeds", "everything"}, smallEnv...)...); err == nil {
		t.Fatal("bad treatment accepted")
	}
	if err := execute(context.Background(), "run", append([]string{"-tga", "9Tree", "-budget", "100"}, smallEnv...)...); err == nil {
		t.Fatal("bad generator accepted")
	}
}

func TestCmdScan(t *testing.T) {
	args := append([]string{"-source", "Umbrella", "-proto", "tcp443"}, smallEnv...)
	if err := execute(context.Background(), "scan", args...); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDealias(t *testing.T) {
	args := append([]string{"-source", "AddrMiner", "-mode", "joint"}, smallEnv...)
	if err := execute(context.Background(), "dealias", args...); err != nil {
		t.Fatal(err)
	}
	if err := execute(context.Background(), "dealias", append([]string{"-mode", "sideways"}, smallEnv...)...); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestCmdHitlist(t *testing.T) {
	dir := t.TempDir()
	addrsPath, aliasesPath := filepath.Join(dir, "responsive.txt"), filepath.Join(dir, "aliases.txt")
	args := append([]string{"-o", addrsPath, "-aliases", aliasesPath}, smallEnv...)
	if err := execute(context.Background(), "hitlist", args...); err != nil {
		t.Fatal(err)
	}

	// Both files read back as exactly what the command built: smallEnv
	// with envFlags' default seed.
	snap, err := buildHitlist(context.Background(), buildEnv(42, 50, 0.15, nil, wire.ChainConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotAddrs, err := seeds.ReadFile(addrsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.ResponsiveDataset()
	if gotAddrs.Len() == 0 || !slices.Equal(gotAddrs.SortedSlice(), want.SortedSlice()) {
		t.Fatalf("responsive list read back %d addresses, built %d", gotAddrs.Len(), want.Len())
	}
	f, err := os.Open(aliasesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotAliases, err := seeds.ReadPrefixes(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAliases) == 0 || !slices.Equal(gotAliases, snap.AliasedPrefixes) {
		t.Fatalf("alias list read back %d prefixes, built %d", len(gotAliases), len(snap.AliasedPrefixes))
	}
}

// TestParseSource: -source takes a seeds.AllSources name in any case, and
// fs.Parse refuses any other.
func TestParseSource(t *testing.T) {
	fs, err := parseFlags("collect", "-source", "ipv6 hitlist")
	if err != nil || fs.Lookup("source").Value.(flag.Getter).Get() != seeds.SourceHitlist {
		t.Fatalf("-source \"ipv6 hitlist\": %v", err)
	}
	if _, err := parseFlags("collect", "-source", ""); err == nil {
		t.Fatal("empty source accepted")
	}
}
