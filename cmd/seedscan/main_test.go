package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"seedscan/internal/seeds"
)

// The command functions run end to end against small environments; these
// tests cover argument validation and the success paths (output goes to
// stdout, which `go test` swallows).

var smallEnv = []string{"-ases", "50", "-scale", "0.15"}

func TestCmdWorld(t *testing.T) {
	if err := cmdWorld([]string{"-ases", "40"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCollect(t *testing.T) {
	args := append([]string{"-source", "Scamper", "-show", "1"}, smallEnv...)
	if err := cmdCollect(args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCollectUnknownSource(t *testing.T) {
	if err := cmdCollect(append([]string{"-source", "NotASource"}, smallEnv...)); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestCmdCollectExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.txt")
	args := append([]string{"-source", "Umbrella", "-o", out}, smallEnv...)
	if err := cmdCollect(args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRun(t *testing.T) {
	args := append([]string{"-tga", "6Tree", "-proto", "icmp", "-budget", "1500", "-seeds", "allactive"}, smallEnv...)
	if err := cmdRun(args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunBadArgs(t *testing.T) {
	if err := cmdRun(append([]string{"-proto", "gopher"}, smallEnv...)); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := cmdRun(append([]string{"-seeds", "everything"}, smallEnv...)); err == nil {
		t.Fatal("bad treatment accepted")
	}
	if err := cmdRun(append([]string{"-tga", "9Tree", "-budget", "100"}, smallEnv...)); err == nil {
		t.Fatal("bad generator accepted")
	}
}

func TestCmdScan(t *testing.T) {
	args := append([]string{"-source", "Umbrella", "-proto", "tcp443"}, smallEnv...)
	if err := cmdScan(args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDealias(t *testing.T) {
	args := append([]string{"-source", "AddrMiner", "-mode", "joint"}, smallEnv...)
	if err := cmdDealias(args); err != nil {
		t.Fatal(err)
	}
	if err := cmdDealias(append([]string{"-mode", "sideways"}, smallEnv...)); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestCmdHitlist(t *testing.T) {
	dir := t.TempDir()
	addrsPath, aliasesPath := filepath.Join(dir, "responsive.txt"), filepath.Join(dir, "aliases.txt")
	args := append([]string{"-o", addrsPath, "-aliases", aliasesPath}, smallEnv...)
	if err := cmdHitlist(args); err != nil {
		t.Fatal(err)
	}

	// Both files read back as exactly what the command built: smallEnv
	// with envFlags' default seed.
	snap, err := buildHitlist(42, 50, 0.15)
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

func TestParseSource(t *testing.T) {
	if _, err := parseSource("ipv6 hitlist"); err != nil {
		t.Fatal("case-insensitive match failed")
	}
	if _, err := parseSource(""); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestCmdResolve(t *testing.T) {
	out := filepath.Join(t.TempDir(), "resolved.txt")
	if err := cmdResolve([]string{"-ases", "40", "-n", "2000", "-rate", "0.2", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdResolve([]string{"-ases", "40", "-rate", "0"}); err == nil {
		t.Fatal("zero rate accepted")
	}
}
