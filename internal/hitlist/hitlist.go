// Package hitlist implements an IPv6 Hitlist service in the style of
// Gasser et al.: it aggregates seed sources, deduplicates, filters known
// aliases, verifies responsiveness per protocol, runs the online alias
// test over the responsive remainder, and publishes three artifacts — the
// responsive address list, the per-protocol breakdowns, and the aliased
// prefix list.
//
// The paper both consumes the real service's outputs (seeds, offline
// alias list) and criticizes their staleness (§6.2: 16% of the published
// "responsive" list no longer answers). This package closes the loop:
// seedscan can regenerate hitlist-style artifacts from any world, and the
// staleness phenomenon reappears whenever the world's epoch advances
// between builds.
//
// Snapshots are served on disk by internal/hitlistdb and over HTTP by
// internal/serve; a build is published with hitlistdb.Store.Publish.
package hitlist

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
)

// Snapshot is one published hitlist build.
type Snapshot struct {
	// BuiltAt records the build time (informational).
	BuiltAt time.Time
	// Epoch is the world epoch the build scanned at. Batch builds leave it
	// zero; the longitudinal daemon stamps each epoch's publish so serving
	// staleness is visible all the way to /v1/healthz.
	Epoch int
	// Input is the number of unique input addresses.
	Input int
	// Responsive lists addresses answering on at least one protocol,
	// dealiased.
	Responsive *ipaddr.Set
	// PerProtocol breaks the responsive set down by protocol.
	PerProtocol [proto.Count]*ipaddr.Set
	// AliasedPrefixes is the /96 (or coarser, from the known list) alias
	// set discovered during the build — the publishable offline list.
	AliasedPrefixes []ipaddr.Prefix
	// AliasedAddrs counts input addresses discarded as aliased.
	AliasedAddrs int
}

// Service builds hitlist snapshots.
type Service struct {
	set settings
}

// New returns a Service configured by opts. A prober (WithProber) is
// required.
func New(opts ...Option) (*Service, error) {
	set := defaultSettings()
	for _, o := range opts {
		o(&set)
	}
	if set.prober == nil {
		return nil, fmt.Errorf("hitlist: prober required")
	}
	return &Service{set: set}, nil
}

// Build runs the full pipeline over the given source datasets. It is the
// context-free wrapper for BuildContext.
func (s *Service) Build(sources ...*seeds.Dataset) (*Snapshot, error) {
	return s.BuildContext(context.Background(), sources...)
}

// BuildContext runs the full pipeline over the given source datasets:
// aggregate, dealias (two-tier), verify responsiveness per protocol, and
// publish the aliased-prefix artifact. Cancelling ctx stops the build at
// the next stage boundary (or mid-scan when the prober implements
// scanner.ContextProber) and returns ctx's error; no partial snapshot is
// returned.
//
// Sources may be empty datasets: the result is a valid, empty snapshot.
// Calling with no sources at all is an error — it is almost always a bug
// at the call site.
func (s *Service) BuildContext(ctx context.Context, sources ...*seeds.Dataset) (*Snapshot, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("hitlist: no input sources")
	}
	ctx, span := telemetry.StartSpan(ctx, "hitlist.build", telemetry.Attrs{"sources": len(sources)})
	defer span.End()
	timer := s.set.tele.StartTimer("hitlist.build.seconds")
	defer timer.Stop()

	// 1. Aggregate and deduplicate.
	input := ipaddr.NewSet()
	for _, src := range sources {
		input.AddSet(src.Addrs)
	}
	s.set.tele.Counter("hitlist.builds").Inc()
	s.set.tele.Counter("hitlist.input_addrs").Add(int64(input.Len()))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// 2. Two-tier dealiasing over the whole input. Split partitions in
	// place, so it gets a copy of the input set's addresses.
	dspan := span.Child("hitlist.dealias", nil)
	d := alias.New(alias.ModeJoint, s.set.known, s.set.prober, proto.ICMP, s.set.seed, s.set.tele)
	clean, aliased := d.Split(input.Slice())
	dspan.EndWith(telemetry.Attrs{"clean": len(clean), "aliased": len(aliased)})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	snap := &Snapshot{
		BuiltAt:      time.Now(),
		Input:        input.Len(),
		Responsive:   ipaddr.NewSet(),
		AliasedAddrs: len(aliased),
	}

	// 3. Verify responsiveness per protocol.
	for _, p := range proto.All {
		vspan := span.Child("hitlist.verify", telemetry.Attrs{"proto": p.String()})
		active, err := scanner.AsContextProber(s.set.prober).ScanActiveContext(ctx, clean, p)
		if err != nil {
			vspan.End()
			return nil, err
		}
		set := ipaddr.NewSet(active...)
		snap.PerProtocol[p] = set
		snap.Responsive.AddSet(set)
		vspan.EndWith(telemetry.Attrs{"active": set.Len()})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.set.tele.Counter("hitlist.responsive_addrs").Add(int64(snap.Responsive.Len()))
	s.set.tele.Counter("hitlist.aliased_addrs").Add(int64(snap.AliasedAddrs))

	// 4. Publish the aliased prefixes: every /96 the online test flagged
	// plus the known list's contribution, deduplicated and sorted.
	prefixSet := make(map[ipaddr.Prefix]struct{})
	for _, a := range aliased {
		prefixSet[ipaddr.PrefixFrom(a, alias.AliasPrefixBits)] = struct{}{}
	}
	snap.AliasedPrefixes = make([]ipaddr.Prefix, 0, len(prefixSet))
	for p := range prefixSet {
		snap.AliasedPrefixes = append(snap.AliasedPrefixes, p)
	}
	SortPrefixes(snap.AliasedPrefixes)
	s.set.tele.Counter("hitlist.aliased_prefixes").Add(int64(len(snap.AliasedPrefixes)))
	return snap, nil
}

// SortPrefixes sorts prefixes by (base address, bits) — the canonical
// published order of the aliased-prefix artifact.
func SortPrefixes(prefixes []ipaddr.Prefix) {
	slices.SortFunc(prefixes, func(a, b ipaddr.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return cmp.Compare(a.Bits(), b.Bits())
	})
}

// ResponsiveDataset exports the responsive list as a named dataset (for
// file output or as TGA seeds).
func (s *Snapshot) ResponsiveDataset() *seeds.Dataset {
	set := s.Responsive
	if set == nil {
		set = ipaddr.NewSet()
	}
	return seeds.FromSet("hitlist-responsive", set)
}

// ResponsiveFraction reports what share of the (dealiased) input was
// responsive — the freshness figure §6.2 puts at 84% for the real
// service. An empty build (no input, or everything aliased) reports 0
// rather than dividing by zero.
func (s *Snapshot) ResponsiveFraction() float64 {
	clean := s.Input - s.AliasedAddrs
	if clean <= 0 {
		return 0
	}
	return float64(s.Responsive.Len()) / float64(clean)
}

// Summary renders a one-build report. It is safe on an empty or zero-value
// snapshot (nil sets read as empty).
func (s *Snapshot) Summary() string {
	out := fmt.Sprintf("hitlist build: %d input, %d aliased discarded (%d prefixes), %d responsive (%.1f%% of clean)\n",
		s.Input, s.AliasedAddrs, len(s.AliasedPrefixes), s.Responsive.Len(), 100*s.ResponsiveFraction())
	for _, p := range proto.All {
		out += fmt.Sprintf("  %-7s %d\n", p, s.PerProtocol[p].Len())
	}
	return out
}
