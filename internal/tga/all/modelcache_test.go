package all_test

import (
	"testing"

	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
)

// offlineNames are the generators that ignore feedback.
var offlineNames = []string{"6Tree", "6Graph", "6Gen", "EIP", "6Prob"}

func runResultsEqual(t *testing.T, name string, want, got *tga.RunResult) {
	t.Helper()
	if got.Generated != want.Generated {
		t.Errorf("%s: generated %d, uncached %d", name, got.Generated, want.Generated)
	}
	if got.Exhausted != want.Exhausted {
		t.Errorf("%s: exhausted %v, uncached %v", name, got.Exhausted, want.Exhausted)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%s: %d hits, uncached %d", name, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Fatalf("%s: hit %d = %v, uncached %v", name, i, got.Hits[i], want.Hits[i])
		}
	}
	if len(got.AliasedHits) != len(want.AliasedHits) {
		t.Fatalf("%s: %d aliased, uncached %d", name, len(got.AliasedHits), len(want.AliasedHits))
	}
	for i := range want.AliasedHits {
		if got.AliasedHits[i] != want.AliasedHits[i] {
			t.Fatalf("%s: aliased %d differs", name, i)
		}
	}
}

// TestModelCacheMatchesUncached runs each generator without the cross-run
// model cache, then twice with it: the first cached run mines the model,
// the second adopts it, and both match the uncached run exactly.
func TestModelCacheMatchesUncached(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 2000
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	for _, name := range offlineNames {
		cfg := tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		}
		uncached, err := tga.Run(all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		cfg.Models = cache
		for run := 0; run < 2; run++ {
			res, err := tga.Run(all.MustNew(name), seeds, cfg)
			if err != nil {
				t.Fatalf("%s cached run %d: %v", name, run, err)
			}
			runResultsEqual(t, name, uncached, res)
		}
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != int64(len(offlineNames)) {
		t.Errorf("misses = %d, want %d (one mine per generator)", misses, len(offlineNames))
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != int64(len(offlineNames)) {
		t.Errorf("hits = %d, want %d (second runs reuse)", hits, len(offlineNames))
	}
}

// TestModelCacheSharedAcrossProtocols is the paper's reuse pattern: the
// seed treatment is fixed, only the probed port varies, and the mined
// model is built once.
func TestModelCacheSharedAcrossProtocols(t *testing.T) {
	_, sc, seeds := setup(t)
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	for _, p := range proto.All {
		cfg := tga.RunConfig{
			Budget: 1000, BatchSize: 512, Proto: p,
			Prober: sc, ExcludeSeeds: true, Models: cache,
		}
		if _, err := tga.Run(all.MustNew("6Tree"), seeds, cfg); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != int64(len(proto.All)-1) {
		t.Errorf("hits = %d, want %d", hits, len(proto.All)-1)
	}
}
