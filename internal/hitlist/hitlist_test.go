package hitlist

import (
	"context"
	"strings"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/world"
)

func buildEnv(t testing.TB) (*world.World, *scanner.Scanner, map[seeds.Source]*seeds.Dataset) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: 7, Scale: 0.2})
	w.SetEpoch(world.ScanEpoch)
	return w, scanner.New(w.Link(), scanner.WithSecret(3)), srcs
}

func TestNewRequiresProber(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("nil prober accepted")
	}
	if _, err := New(WithSeed(1), WithTelemetry(telemetry.NewRegistry())); err == nil {
		t.Fatal("option set without prober accepted")
	}
}

func TestBuildRequiresSources(t *testing.T) {
	_, sc, _ := buildEnv(t)
	svc, err := New(WithProber(sc), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Build(); err == nil {
		t.Fatal("zero-source build accepted")
	}
}

// TestBuildEmptyInput pins the empty-build contract: sources with zero
// addresses produce a valid empty snapshot, and Summary and
// ResponsiveFraction stay finite instead of dividing by zero.
func TestBuildEmptyInput(t *testing.T) {
	_, sc, _ := buildEnv(t)
	svc, err := New(WithProber(sc), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(seeds.NewDataset("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Input != 0 || snap.Responsive.Len() != 0 || snap.AliasedAddrs != 0 {
		t.Fatalf("empty build produced %+v", snap)
	}
	if f := snap.ResponsiveFraction(); f != 0 {
		t.Fatalf("ResponsiveFraction on empty build = %v, want 0", f)
	}
	if sum := snap.Summary(); !strings.Contains(sum, "0 input") {
		t.Fatalf("Summary on empty build: %q", sum)
	}
	for _, p := range proto.All {
		if snap.PerProtocol[p].Len() != 0 {
			t.Fatalf("%v set non-empty on empty build", p)
		}
	}
}

// TestZeroSnapshotIsReadable pins that a zero-value Snapshot (as a decoder
// might leave one) renders without panicking: nil sets read as empty.
func TestZeroSnapshotIsReadable(t *testing.T) {
	var snap Snapshot
	if f := snap.ResponsiveFraction(); f != 0 {
		t.Fatalf("zero snapshot fraction = %v", f)
	}
	if sum := snap.Summary(); !strings.Contains(sum, "hitlist build") {
		t.Fatalf("zero snapshot summary = %q", sum)
	}
	if n := snap.ResponsiveDataset().Len(); n != 0 {
		t.Fatalf("zero snapshot dataset has %d addrs", n)
	}
}

func TestBuildPipeline(t *testing.T) {
	w, sc, srcs := buildEnv(t)
	svc, err := New(WithProber(sc), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(srcs[seeds.SourceHitlist], srcs[seeds.SourceAddrMiner], srcs[seeds.SourceScamper])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Input == 0 || snap.Responsive.Len() == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	// AddrMiner pollution guarantees aliased discards.
	if snap.AliasedAddrs == 0 || len(snap.AliasedPrefixes) == 0 {
		t.Fatal("no aliases filtered")
	}
	// Published prefixes must cover genuinely aliased space.
	for _, p := range snap.AliasedPrefixes[:min(5, len(snap.AliasedPrefixes))] {
		if !w.IsAliased(p.Addr().AddLo(12345)) {
			t.Fatalf("published prefix %v is not aliased ground truth", p)
		}
	}
	// Responsive addresses answer on at least one protocol.
	checked := 0
	snap.Responsive.Each(func(a ipaddr.Addr) {
		if checked >= 100 {
			return
		}
		checked++
		if !w.ActiveOnAny(a, world.ScanEpoch) {
			t.Errorf("published %v not actually responsive", a)
		}
	})
	// Per-protocol subsets stay within the responsive set.
	for _, p := range proto.All {
		if snap.PerProtocol[p].Diff(snap.Responsive).Len() != 0 {
			t.Fatalf("%v subset escapes responsive set", p)
		}
	}
	if f := snap.ResponsiveFraction(); f <= 0 || f > 1 {
		t.Fatalf("responsive fraction = %v", f)
	}
	if !strings.Contains(snap.Summary(), "hitlist build") {
		t.Fatal("summary wrong")
	}
}

func TestBuildContextCancellation(t *testing.T) {
	_, sc, srcs := buildEnv(t)
	svc, err := New(WithProber(sc), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.BuildContext(ctx, srcs[seeds.SourceHitlist]); err == nil {
		t.Fatal("cancelled build returned a snapshot")
	} else if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBuildTelemetry(t *testing.T) {
	_, sc, srcs := buildEnv(t)
	reg := telemetry.NewRegistry()
	svc, err := New(WithProber(sc), WithSeed(1), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(srcs[seeds.SourceHitlist])
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("hitlist.builds").Load(); n != 1 {
		t.Fatalf("hitlist.builds = %d", n)
	}
	if n := reg.Counter("hitlist.responsive_addrs").Load(); n != int64(snap.Responsive.Len()) {
		t.Fatalf("hitlist.responsive_addrs = %d, want %d", n, snap.Responsive.Len())
	}
	if reg.Histogram("hitlist.build.seconds").Stats().Count != 1 {
		t.Fatal("build duration not observed")
	}
}

func TestKnownAliasesSaveProbes(t *testing.T) {
	w, sc, srcs := buildEnv(t)
	known := alias.NewOfflineList(w.AliasedPrefixes())

	build := func(list *alias.OfflineList) int64 {
		before := sc.Stats().PacketsSent.Load()
		svc, err := New(WithProber(sc), WithKnownAliases(list), WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Build(srcs[seeds.SourceAddrMiner]); err != nil {
			t.Fatal(err)
		}
		return sc.Stats().PacketsSent.Load() - before
	}
	withList := build(known)
	withoutList := build(nil)
	if withList >= withoutList {
		t.Fatalf("known aliases did not save probes: %d vs %d", withList, withoutList)
	}
}

func TestStalenessAcrossEpochs(t *testing.T) {
	// Build at the collection epoch, then advance the clock: churn makes
	// part of the published list stale — §6.2's 16% phenomenon.
	w, sc, srcs := buildEnv(t)
	w.SetEpoch(world.CollectEpoch)
	svc, err := New(WithProber(sc), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(srcs[seeds.SourceHitlist], srcs[seeds.SourceRIPEAtlas])
	if err != nil {
		t.Fatal(err)
	}
	w.SetEpoch(world.ScanEpoch)
	stale := 0
	snap.Responsive.Each(func(a ipaddr.Addr) {
		if !w.ActiveOnAny(a, world.ScanEpoch) {
			stale++
		}
	})
	frac := float64(stale) / float64(snap.Responsive.Len())
	if frac <= 0 {
		t.Fatal("no staleness across epochs")
	}
	if frac > 0.5 {
		t.Fatalf("staleness %.2f implausibly high", frac)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
