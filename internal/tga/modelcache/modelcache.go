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
	"sync"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
)

// key identifies one mined model.
type key struct {
	params string // ModelParams: what is mined and every knob shaping it
	count  int    // seed count (cheap digest-collision guard)
	digest uint64 // order-sensitive digest of the canonical seed list
}

// entry is a singleflight slot: the first requester builds, everyone else
// waits on ready.
type entry struct {
	ready chan struct{}
	model tga.Model
	err   error
}

// Cache is a concurrency-safe model cache implementing tga.ModelSource.
// The zero value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[key]*entry
	reg     *telemetry.Registry
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: map[key]*entry{}}
}

// SetTelemetry routes tga.modelcache.* counters and the build-time
// histogram to reg (nil disables, the default).
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// GetOrBuild implements tga.ModelSource: it returns the cached model for
// (g.ModelParams(), seeds), mining it with g on the first request.
// Concurrent requests for the same key mine once — later requesters block
// until the first build finishes (or ctx is done). Seeds must be in
// canonical sorted order and are deduplicated here; the digest is
// order-sensitive by design, so a non-canonical order would fragment the
// cache, not corrupt it. A failed build is not cached:
// errors propagate to every waiter of that flight, then the slot is
// cleared so a later request may retry.
func (c *Cache) GetOrBuild(ctx context.Context, g tga.ModelBuilder, seeds []ipaddr.Addr) (tga.Model, error) {
	seeds = ipaddr.DedupSorted(seeds)
	k := key{
		params: g.ModelParams(),
		count:  len(seeds),
		digest: ipaddr.Digest(seeds),
	}
	c.mu.Lock()
	reg := c.reg
	if e, ok := c.entries[k]; ok {
		c.mu.Unlock()
		reg.Counter("tga.modelcache.hits").Inc()
		select {
		case <-e.ready:
			return e.model, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()

	reg.Counter("tga.modelcache.misses").Inc()
	start := time.Now()
	e.model, e.err = g.BuildModel(seeds)
	reg.ObserveDuration("tga.modelcache.build_seconds", time.Since(start).Seconds())
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		c.mu.Unlock()
	}
	return e.model, e.err
}
