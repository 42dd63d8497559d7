// Package modelcache provides the cross-run TGA model cache: mined seed
// models (6Gen's clustering, Entropy/IP's segment tables, the tree TGAs'
// space trees, 6Sense's arms) keyed by (model params, seed count, seed
// digest) so grid cells that share a seed treatment reuse the model across
// protocols, and generators that mine the same model share it, instead of
// re-mining it per cell and per generator.
//
// What is safe to reuse: the model is a pure function of the canonical
// seed list and ModelParams, which names the model rather than the
// generator (6Tree, 6Scan and 6Hit all mine tga.LeftmostTree), so any two
// runs with the same key — across generators, protocols, probers, budgets,
// or dealiasers — share it. A tga.ModelDeriver's base is resolved through
// the cache too: 6Graph merges the tga.MinEntropyTree that DET and
// AddrMiner adopt, so the tree is mined once for all three. Seeds are
// deduplicated before keying, so a duplicated seed neither splits the
// cache nor reaches BuildModel twice.
// What is not: anything fed by scan results (online rebuilds,
// reward state) is per-run state that ModelBuilder.InitFromModel creates
// fresh, and so is mutable state that widens a generator's seed set:
// AddrMiner names DET's tree, mined from the seeds alone, and adopts it
// only while its long-term memory is empty.
package modelcache

import (
	"context"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
)

// key identifies one mined model.
type key struct {
	params string // ModelParams: what is mined and every knob shaping it
	count  int    // seed count (cheap digest-collision guard)
	digest uint64 // order-sensitive digest of the canonical seed list
}

// Cache is a concurrency-safe model cache implementing tga.ModelSource.
// The zero value is an empty cache, as is New's.
type Cache struct {
	models memo.Map[key, tga.Model]
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{}
}

// GetOrBuild implements tga.ModelSource: it returns the cached model for
// (g.ModelParams(), seeds), mining it with g on the first request. When g
// is a tga.ModelDeriver, the first request builds the model as g.Derive of
// its base's model, itself taken from the cache. Concurrent requests for
// the same key mine once — later requesters block until the first build
// finishes (or ctx is done). Seeds must be in canonical sorted order and
// are deduplicated here; the digest is order-sensitive by design, so a
// non-canonical order would fragment the cache, not corrupt it. A failed
// build is not cached: its error goes to the requester that mined, and a
// waiter whose ctx is still live mines again itself (see memo.Map.Do).
// When ctx carries a tracer, the tga.modelcache.* counters and build-time
// histogram land in its registry; a derived model's build time excludes
// its base's.
func (c *Cache) GetOrBuild(ctx context.Context, g tga.ModelBuilder, seeds []ipaddr.Addr) (tga.Model, error) {
	seeds = ipaddr.DedupSorted(seeds)
	return c.get(ctx, g, seeds, ipaddr.Digest(seeds))
}

// get is GetOrBuild over deduplicated seeds and their digest.
func (c *Cache) get(ctx context.Context, g tga.ModelBuilder, seeds []ipaddr.Addr, digest uint64) (tga.Model, error) {
	k := key{
		params: g.ModelParams(),
		count:  len(seeds),
		digest: digest,
	}
	reg := telemetry.FromContext(ctx).Registry()
	m, shared, err := c.models.Do(ctx, k, func() (tga.Model, error) {
		build := func() (tga.Model, error) { return g.BuildModel(seeds) }
		if d, ok := g.(tga.ModelDeriver); ok {
			// Another key, whose build this one may wait on.
			base, err := c.get(ctx, d.Base(), seeds, digest)
			if err != nil {
				return nil, err
			}
			build = func() (tga.Model, error) { return d.Derive(base) }
		}
		reg.Counter("tga.modelcache.misses").Inc()
		start := time.Now()
		m, err := build()
		reg.ObserveDuration("tga.modelcache.build_seconds", time.Since(start).Seconds())
		return m, err
	})
	if shared {
		reg.Counter("tga.modelcache.hits").Inc()
	}
	return m, err
}
