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
// or dealiasers — share it. Seeds are deduplicated before keying, so a
// duplicated seed neither splits the cache nor reaches BuildModel twice.
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
// (g.ModelParams(), seeds), mining it with g on the first request.
// Concurrent requests for the same key mine once — later requesters block
// until the first build finishes (or ctx is done). Seeds must be in
// canonical sorted order and are deduplicated here; the digest is
// order-sensitive by design, so a non-canonical order would fragment the
// cache, not corrupt it. A failed build is not cached: its error goes to
// the requester that mined, and a waiter whose ctx is still live mines
// again itself (see memo.Map.Do). When ctx carries a tracer, the
// tga.modelcache.* counters and build-time histogram land in its registry.
func (c *Cache) GetOrBuild(ctx context.Context, g tga.ModelBuilder, seeds []ipaddr.Addr) (tga.Model, error) {
	seeds = ipaddr.DedupSorted(seeds)
	k := key{
		params: g.ModelParams(),
		count:  len(seeds),
		digest: ipaddr.Digest(seeds),
	}
	reg := telemetry.FromContext(ctx).Registry()
	m, shared, err := c.models.Do(ctx, k, func() (tga.Model, error) {
		reg.Counter("tga.modelcache.misses").Inc()
		start := time.Now()
		m, err := g.BuildModel(seeds)
		reg.ObserveDuration("tga.modelcache.build_seconds", time.Since(start).Seconds())
		return m, err
	})
	if shared {
		reg.Counter("tga.modelcache.hits").Inc()
	}
	return m, err
}
