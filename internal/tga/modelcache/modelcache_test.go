package modelcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/sixtree"
)

// countingBuilder wraps a real ModelBuilder and counts BuildModel calls.
type countingBuilder struct {
	*sixtree.Generator
	builds atomic.Int64
	fail   bool
}

func (b *countingBuilder) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	b.builds.Add(1)
	if b.fail {
		return nil, errors.New("boom")
	}
	return b.Generator.BuildModel(seeds)
}

// otherParams is a countingBuilder whose model-shaping parameters differ
// from the generator's own.
type otherParams struct{ *countingBuilder }

func (otherParams) ModelParams() string { return "variant" }

func someSeeds(n int) []ipaddr.Addr {
	base := ipaddr.MustParse("2001:db8::")
	out := make([]ipaddr.Addr, n)
	for i := range out {
		out[i] = base.AddLo(uint64(i))
	}
	return out
}

func TestGetOrBuildCachesByKey(t *testing.T) {
	c := New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	b := &countingBuilder{Generator: sixtree.New()}
	seeds := someSeeds(100)

	m1, err := c.GetOrBuild(ctx, b, seeds)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.GetOrBuild(ctx, b, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same key returned different models")
	}
	if got := b.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	if c.len() != 1 {
		t.Fatalf("cache len = %d", c.len())
	}
	if reg.Counter("tga.modelcache.hits").Load() != 1 ||
		reg.Counter("tga.modelcache.misses").Load() != 1 {
		t.Fatalf("counters hits=%d misses=%d",
			reg.Counter("tga.modelcache.hits").Load(),
			reg.Counter("tga.modelcache.misses").Load())
	}
}

// TestCountsFollowContextTracer pins where the counters land: in the
// registry of the tracer each request's ctx carries, so one cache shared by
// differently traced runs splits its hits and misses between them, and a
// request without a tracer counts nothing.
func TestCountsFollowContextTracer(t *testing.T) {
	c := New()
	b := &countingBuilder{Generator: sixtree.New()}
	seeds := someSeeds(100)
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	for _, ctx := range []context.Context{
		telemetry.NewContext(context.Background(), telemetry.NewTracer(regA)),
		telemetry.NewContext(context.Background(), telemetry.NewTracer(regB)),
		context.Background(),
	} {
		if _, err := c.GetOrBuild(ctx, b, seeds); err != nil {
			t.Fatal(err)
		}
	}
	a, bs := regA.Snapshot(), regB.Snapshot()
	if a.Counters["tga.modelcache.misses"] != 1 || a.Counters["tga.modelcache.hits"] != 0 {
		t.Errorf("first tracer: counters %v, want one miss", a.Counters)
	}
	if a.Histograms["tga.modelcache.build_seconds"].Count != 1 {
		t.Errorf("first tracer: build_seconds %+v, want one observation", a.Histograms["tga.modelcache.build_seconds"])
	}
	if bs.Counters["tga.modelcache.hits"] != 1 || bs.Counters["tga.modelcache.misses"] != 0 {
		t.Errorf("second tracer: counters %v, want one hit", bs.Counters)
	}
	if got := b.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
}

func TestKeySensitivity(t *testing.T) {
	c := New()
	b := &countingBuilder{Generator: sixtree.New()}
	ctx := context.Background()
	if _, err := c.GetOrBuild(ctx, b, someSeeds(100)); err != nil {
		t.Fatal(err)
	}
	// Different seeds → different key.
	if _, err := c.GetOrBuild(ctx, b, someSeeds(101)); err != nil {
		t.Fatal(err)
	}
	// Different params → different key.
	b2 := &countingBuilder{Generator: sixtree.New()}
	if _, err := c.GetOrBuild(ctx, otherParams{b2}, someSeeds(100)); err != nil {
		t.Fatal(err)
	}
	if got := b.builds.Load() + b2.builds.Load(); got != 3 {
		t.Fatalf("builds = %d, want 3", got)
	}
	if c.len() != 3 {
		t.Fatalf("cache len = %d", c.len())
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	c := New()
	b := &countingBuilder{Generator: sixtree.New()}
	seeds := someSeeds(500)
	var wg sync.WaitGroup
	models := make([]tga.Model, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.GetOrBuild(context.Background(), b, seeds)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	if got := b.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", got)
	}
	for i := 1; i < 16; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent requesters got different models")
		}
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	c := New()
	b := &countingBuilder{Generator: sixtree.New(), fail: true}
	seeds := someSeeds(10)
	if _, err := c.GetOrBuild(context.Background(), b, seeds); err == nil {
		t.Fatal("expected error")
	}
	if c.len() != 0 {
		t.Fatalf("failed build cached, len = %d", c.len())
	}
	b.fail = false
	if _, err := c.GetOrBuild(context.Background(), b, seeds); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := b.builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
}

// derivingBuilder is a tga.ModelDeriver over base: its model wraps the
// base model Derive is given. Its own BuildModel (countingBuilder's) is
// what a cache must not call.
type derivingBuilder struct {
	*countingBuilder
	base    *countingBuilder
	derives atomic.Int64
}

// derivedModel is what derivingBuilder derives.
type derivedModel struct{ from tga.Model }

func (d *derivingBuilder) ModelParams() string    { return "derived" }
func (d *derivingBuilder) Base() tga.ModelBuilder { return d.base }
func (d *derivingBuilder) Derive(base tga.Model) (tga.Model, error) {
	d.derives.Add(1)
	return &derivedModel{from: base}, nil
}

// TestDerivedModelReadsCachedBase: a ModelDeriver's model is Derive of the
// base model the cache holds for the same seeds — mined once, and not
// mined again when the base's own builder asks — and a failed base build
// caches neither model.
func TestDerivedModelReadsCachedBase(t *testing.T) {
	c := New()
	reg := telemetry.NewRegistry()
	ctx := telemetry.NewContext(context.Background(), telemetry.NewTracer(reg))
	base := &countingBuilder{Generator: sixtree.New(), fail: true}
	d := &derivingBuilder{countingBuilder: &countingBuilder{Generator: sixtree.New()}, base: base}
	seeds := someSeeds(100)

	if _, err := c.GetOrBuild(ctx, d, seeds); err == nil {
		t.Fatal("a failed base build derived a model")
	}
	if c.len() != 0 {
		t.Fatalf("failed base build cached, len = %d", c.len())
	}
	base.fail = false
	m, err := c.GetOrBuild(ctx, d, seeds)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.GetOrBuild(ctx, d, seeds)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.GetOrBuild(ctx, base, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if again != m || m.(*derivedModel).from != tree {
		t.Fatal("the derived model is not Derive of the cached base model")
	}
	if b, n, own := base.builds.Load(), d.derives.Load(), d.builds.Load(); b != 2 || n != 1 || own != 0 {
		t.Fatalf("base built %d times (one failed), derived %d, own BuildModel %d: want 2, 1, 0", b, n, own)
	}
	if hits, misses := reg.Counter("tga.modelcache.hits").Load(), reg.Counter("tga.modelcache.misses").Load(); hits != 2 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2 and 3", hits, misses)
	}
}

// len reports the number of completed or in-flight models.
func (c *Cache) len() int { return c.models.Len() }
