package all_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/addrminer"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
)

// builders lists the registered generators that implement
// tga.ModelBuilder, in ExtendedNames order, and groups them by the model
// their ModelParams name.
func builders() (names []string, byParams map[string][]string) {
	byParams = map[string][]string{}
	for _, name := range all.ExtendedNames {
		if mb, ok := all.MustNew(name).(tga.ModelBuilder); ok {
			names = append(names, name)
			byParams[mb.ModelParams()] = append(byParams[mb.ModelParams()], name)
		}
	}
	return names, byParams
}

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

// TestModelCacheMatchesUncached runs each model builder without the
// cross-run model cache, then twice with it through one cache: a model is
// mined by the first run that asks for it and adopted by every later one —
// the second run of the same generator, the runs of other generators
// whose ModelParams name the same model (6Scan and 6Hit adopt the tree
// 6Tree mined), and a ModelDeriver's base (6Graph derives from the tree
// DET mined) — and every cached run matches its uncached run exactly.
func TestModelCacheMatchesUncached(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 2000
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	names, byParams := builders()
	for _, name := range names {
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
			res, err := tga.RunContext(ctx, all.MustNew(name), seeds, cfg)
			if err != nil {
				t.Fatalf("%s cached run %d: %v", name, run, err)
			}
			runResultsEqual(t, name, uncached, res)
		}
	}
	// Every base is some builder's model, so deriving mines nothing more:
	// each deriver's first run asks once more, and hits.
	models, derivers := len(byParams), 0
	for _, name := range names {
		if d, ok := all.MustNew(name).(tga.ModelDeriver); ok {
			if _, ok := byParams[d.Base().ModelParams()]; !ok {
				t.Fatalf("%s derives from %q, which no builder names", name, d.Base().ModelParams())
			}
			derivers++
		}
	}
	if derivers == 0 {
		t.Fatal("no builder derives its model")
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != int64(models) {
		t.Errorf("misses = %d, want %d (one mine per distinct ModelParams)", misses, models)
	}
	if want := int64(2*len(names) - models + derivers); reg.Counter("tga.modelcache.hits").Load() != want {
		t.Errorf("hits = %d, want %d (every other run reuses, and each deriver's base is reused)", reg.Counter("tga.modelcache.hits").Load(), want)
	}
}

// TestModelParamsNameTheModel holds every builder to the ModelParams
// contract the cache keys on: builders that return the same value build
// deep-equal models from the same canonical seeds. It holds 6Graph to the
// ModelDeriver contract too: its base builds DET's tree, and deriving
// from that tree builds 6Graph's model and leaves the tree as it was.
func TestModelParamsNameTheModel(t *testing.T) {
	_, byParams := builders()
	if got := byParams[tga.LeftmostTree]; !slices.Equal(got, []string{"6Tree", "6Scan", "6Hit"}) {
		t.Errorf("%s is mined by %v, want 6Tree, 6Scan and 6Hit", tga.LeftmostTree, got)
	}
	sixGraph := all.MustNew("6Graph").(interface {
		tga.ModelBuilder
		tga.ModelDeriver
	})
	if got := sixGraph.Base().ModelParams(); got != tga.MinEntropyTree {
		t.Errorf("6Graph derives from %q, want %q", got, tga.MinEntropyTree)
	}
	for si, seeds := range [2][]ipaddr.Addr{syntheticSeeds(12), syntheticSeeds(64)} {
		// BuildModel's input as the driver and the cache hand it over.
		seeds = ipaddr.DedupSorted(seeds)
		for params, names := range byParams {
			if len(names) < 2 {
				continue
			}
			var first tga.Model
			for i, name := range names {
				m, err := all.MustNew(name).(tga.ModelBuilder).BuildModel(seeds)
				if err != nil {
					t.Fatalf("%s, set %d: %v", name, si, err)
				}
				if i == 0 {
					first = m
				} else if !reflect.DeepEqual(m, first) {
					t.Errorf("set %d: %s and %s both claim ModelParams %q but build different models", si, names[0], name, params)
				}
			}
		}

		tree, err := all.MustNew("DET").(tga.ModelBuilder).BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sixGraph.Base().BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, tree) {
			t.Errorf("set %d: 6Graph's base and DET build different trees", si)
		}
		derived, err := sixGraph.Derive(tree)
		if err != nil {
			t.Fatal(err)
		}
		built, err := sixGraph.BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(derived, built) {
			t.Errorf("set %d: 6Graph's Derive of DET's tree differs from its BuildModel", si)
		}
		if !reflect.DeepEqual(base, tree) {
			t.Errorf("set %d: Derive changed the tree it read", si)
		}
	}
}

// TestSixGraphSharesDETTree: DET and 6Graph, run through one cache in
// either order, mine one min-entropy tree between them, and 6Graph's
// cached run matches its uncached one.
func TestSixGraphSharesDETTree(t *testing.T) {
	seeds := syntheticSeeds(64)
	cfg := tga.RunConfig{Budget: 2000, BatchSize: 512, Proto: proto.ICMP, Prober: hashProber{}, ExcludeSeeds: true}
	uncached, err := tga.Run(all.MustNew("6Graph"), seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{{"DET", "6Graph"}, {"6Graph", "DET"}} {
		cache := modelcache.New()
		reg := telemetry.NewRegistry()
		ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
		cached := cfg
		cached.Models = cache
		for _, name := range order {
			res, err := tga.RunContext(ctx, all.MustNew(name), seeds, cached)
			if err != nil {
				t.Fatalf("%v, %s: %v", order, name, err)
			}
			if name == "6Graph" {
				runResultsEqual(t, name, uncached, res)
			}
		}
		// Two models are mined, the tree and 6Graph's patterns, and the
		// second request for the tree is a hit, whichever run made it.
		misses, hits := reg.Counter("tga.modelcache.misses").Load(), reg.Counter("tga.modelcache.hits").Load()
		if misses != 2 || hits != 1 {
			t.Errorf("%v: %d misses and %d hits, want 2 and 1 (one tree for both)", order, misses, hits)
		}
		// The tree is in the cache under DET's key: asking again mines
		// nothing.
		if _, err := cache.GetOrBuild(ctx, all.MustNew("DET").(tga.ModelBuilder), tga.CanonicalSeeds(seeds)); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("tga.modelcache.misses").Load(); got != 2 {
			t.Errorf("%v: asking for the tree again mined it (%d misses)", order, got)
		}
	}
}

// TestDuplicateSeedsAreOneSeed: listing a seed twice changes nothing a
// generator proposes.
func TestDuplicateSeedsAreOneSeed(t *testing.T) {
	seeds := syntheticSeeds(64)
	deduped := ipaddr.DedupSorted(seeds)
	if len(deduped) == len(seeds) {
		t.Fatal("the seed set holds no duplicates to test with")
	}
	for _, name := range all.ExtendedNames {
		want, err := tga.Generate(all.MustNew(name), deduped, 3000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := tga.Generate(all.MustNew(name), seeds, 3000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d candidates from seeds with duplicates, %d without, or in another order", name, len(got), len(want))
		}
	}
}

// hashProber answers like mixOutcome and keeps no state, so runs on
// concurrent goroutines hear what they would hear one at a time.
type hashProber struct{}

func (hashProber) Scan(ts []ipaddr.Addr, p proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(ts))
	for i, a := range ts {
		out[i] = scanner.Result{Addr: a, Proto: p}
		if mixOutcome(a).Active {
			out[i].Status = scanner.StatusActive
		}
	}
	return out
}

func (h hashProber) ScanActive(ts []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr {
	return scanner.ActiveAddrs(h.Scan(ts, p))
}

// TestModelCacheSharedTreeConcurrent is the grid's sharing pattern: 6Tree,
// 6Scan and 6Hit start on concurrent goroutines and adopt the one
// leftmost tree the cache mines for them, and each run still matches its
// uncached run. Under -race it also checks that adopting a tree never
// writes through it.
func TestModelCacheSharedTreeConcurrent(t *testing.T) {
	seeds := syntheticSeeds(64)
	names := []string{"6Tree", "6Scan", "6Hit"}
	cfg := tga.RunConfig{Budget: 4000, BatchSize: 512, Proto: proto.ICMP, Prober: hashProber{}, ExcludeSeeds: true}
	want := make([]*tga.RunResult, len(names))
	for i, name := range names {
		res, err := tga.Run(all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		want[i] = res
	}
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	cfg.Models = cache
	got := make([]*tga.RunResult, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = tga.RunContext(ctx, all.MustNew(name), seeds, cfg)
		}()
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s cached: %v", name, errs[i])
		}
		runResultsEqual(t, name, want[i], got[i])
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != 1 {
		t.Errorf("misses = %d, want 1 (one tree for three generators)", misses)
	}
}

// TestModelCacheSharedAcrossProtocols is the paper's reuse pattern: the
// seed treatment is fixed, only the probed port varies, and the mined
// model is built once.
func TestModelCacheSharedAcrossProtocols(t *testing.T) {
	_, sc, seeds := setup(t)
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	for _, p := range proto.All {
		cfg := tga.RunConfig{
			Budget: 1000, BatchSize: 512, Proto: p,
			Prober: sc, ExcludeSeeds: true, Models: cache,
		}
		if _, err := tga.RunContext(ctx, all.MustNew("6Tree"), seeds, cfg); err != nil {
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

// fixedModel hands every run the one model it holds.
type fixedModel struct{ m tga.Model }

func (f fixedModel) GetOrBuild(context.Context, tga.ModelBuilder, []ipaddr.Addr) (tga.Model, error) {
	return f.m, nil
}

// TestRunsLeaveTheirModelUnchanged holds every builder to the contract
// that lets the cache share a model: two runs adopting one model at once,
// under an oracle that reports hits for them to adapt to, leave it
// deep-equal to a twin mined from the same seeds. Under -race it also
// checks that the two runs' reads of the model never race a write.
func TestRunsLeaveTheirModelUnchanged(t *testing.T) {
	seeds := ipaddr.DedupSorted(syntheticSeeds(64))
	names, _ := builders()
	if len(names) != 10 {
		t.Fatalf("%d model builders, want 10", len(names))
	}
	for _, name := range names {
		mb := all.MustNew(name).(tga.ModelBuilder)
		m, err := mb.BuildModel(seeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		twin, err := mb.BuildModel(seeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := tga.RunConfig{
			Budget: 4000, BatchSize: 512, Proto: proto.ICMP, Prober: hashProber{},
			ExcludeSeeds: true, Models: fixedModel{m},
		}
		var wg sync.WaitGroup
		res := make([]*tga.RunResult, 2)
		errs := make([]error, 2)
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = tga.Run(all.MustNew(name), seeds, cfg)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if mb.Online() && len(res[i].Hits) == 0 {
				t.Fatalf("%s run %d heard no hits to adapt to", name, i)
			}
		}
		if !reflect.DeepEqual(m, twin) {
			t.Errorf("%s: running from a model changed it", name)
		}
	}
}

// TestAddrMinerSharesDETModel: AddrMiner's core mines DET's min-entropy
// tree, so once DET has run on a seed set through a cache, AddrMiner's run
// on the same seeds adopts that tree instead of mining it again.
func TestAddrMinerSharesDETModel(t *testing.T) {
	seeds := syntheticSeeds(64)
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	cfg := tga.RunConfig{Budget: 2000, BatchSize: 512, Proto: proto.ICMP, Prober: hashProber{}, ExcludeSeeds: true, Models: cache}
	for _, name := range []string{"DET", "AddrMiner"} {
		if _, err := tga.RunContext(ctx, all.MustNew(name), seeds, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != 1 {
		t.Errorf("misses = %d, want 1 (one tree for DET and AddrMiner)", misses)
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

// TestAddrMinerCachedMatchesUncached: a run through the cache proposes and
// finds exactly what a run without it does, whether the memory starts
// empty (the run adopts the cached tree) or holds what an earlier run
// found (the run mines seeds ∪ memory, as without a cache).
func TestAddrMinerCachedMatchesUncached(t *testing.T) {
	seeds := syntheticSeeds(64)
	cfg := tga.RunConfig{
		Budget: 4000, BatchSize: 512, Proto: proto.ICMP, Prober: hashProber{},
		ExcludeSeeds: true,
	}
	earlier := addrminer.NewStore()
	if _, err := tga.Run(addrminer.New(earlier), seeds, cfg); err != nil {
		t.Fatal(err)
	}
	if earlier.Len() == 0 {
		t.Fatal("the earlier run left nothing in memory")
	}
	cached := cfg
	cached.Models = modelcache.New()
	for _, memory := range []struct {
		name  string
		addrs []ipaddr.Addr
	}{{"empty memory", nil}, {"memory of an earlier run", earlier.Snapshot()}} {
		var res [2]*tga.RunResult
		var cands [2][]ipaddr.Addr
		for i, c := range []tga.RunConfig{cfg, cached} {
			store := addrminer.NewStore()
			store.Remember(memory.addrs)
			rec := &recordingProber{Prober: c.Prober}
			c.Prober = rec
			var err error
			if res[i], err = tga.Run(addrminer.New(store), seeds, c); err != nil {
				t.Fatalf("%s: %v", memory.name, err)
			}
			cands[i] = rec.targets
		}
		runResultsEqual(t, memory.name, res[0], res[1])
		if !slices.Equal(cands[1], cands[0]) {
			t.Errorf("%s: cached run proposed %d candidates, uncached %d, or in another order", memory.name, len(cands[1]), len(cands[0]))
		}
	}
}
