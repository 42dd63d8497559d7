package seeds

import (
	"math/rand"

	"seedscan/internal/ipaddr"
	"seedscan/internal/world"
)

// CollectConfig scales and seeds collection. The zero value is completed
// with defaults.
type CollectConfig struct {
	// Seed drives the collectors' sampling; independent of the world seed.
	Seed uint64
	// Scale multiplies every source's base volume (default 1). The base
	// volumes keep Table 3's relative proportions at roughly 1/500 of the
	// paper's counts.
	Scale float64
}

func (c *CollectConfig) fillDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
}

// profile captures a source's collection bias: where it looks, how big it
// is, and how polluted it is with aliases and dead addresses. Fractions
// follow Table 3's unique/dealiased/active ratios.
type profile struct {
	classes   []world.HostClass
	baseCount int
	hostFrac  float64 // sampled existing hosts (may still be churned later)
	aliasFrac float64 // sampled from aliased regions (wildcard records etc.)
	noiseFrac float64 // in-template addresses never verified to exist
	popular   float64 // >0: keep only hosts with popularity below threshold
	staleFrac float64 // extra share of hosts sampled ignoring existence
	// (archival data: Rapid7's 2021 snapshot)
	sharedFrac float64 // share of hosts/aliases drawn from the common
	// domain pool — sources that resolve overlapping domain sets see the
	// same addresses, which is Figure 1's domain-overlap block
}

var domainClasses = []world.HostClass{world.ClassWebServer, world.ClassCDNNode, world.ClassDNSServer}

var profiles = map[Source]profile{
	SourceCensys: {classes: domainClasses, baseCount: 39000,
		hostFrac: 0.30, aliasFrac: 0.38, noiseFrac: 0.32, sharedFrac: 0.5},
	SourceRapid7: {classes: domainClasses, baseCount: 49000,
		hostFrac: 0.18, aliasFrac: 0.44, noiseFrac: 0.38, staleFrac: 0.3, sharedFrac: 0.5},
	SourceUmbrella: {classes: domainClasses, baseCount: 650,
		hostFrac: 0.20, aliasFrac: 0.72, noiseFrac: 0.08, popular: 0.08},
	SourceMajestic: {classes: domainClasses, baseCount: 330,
		hostFrac: 0.15, aliasFrac: 0.78, noiseFrac: 0.07, popular: 0.08},
	SourceTranco: {classes: domainClasses, baseCount: 360,
		hostFrac: 0.16, aliasFrac: 0.76, noiseFrac: 0.08, popular: 0.08},
	SourceSecRank: {classes: domainClasses, baseCount: 320,
		hostFrac: 0.10, aliasFrac: 0.84, noiseFrac: 0.06, popular: 0.10},
	SourceRadar: {classes: domainClasses, baseCount: 380,
		hostFrac: 0.17, aliasFrac: 0.75, noiseFrac: 0.08, popular: 0.08},
	SourceCAIDADNS: {classes: []world.HostClass{world.ClassRouter}, baseCount: 150,
		hostFrac: 0.62, aliasFrac: 0.03, noiseFrac: 0.35},
	SourceScamper: {classes: []world.HostClass{world.ClassRouter, world.ClassDark}, baseCount: 13000,
		hostFrac: 0.4, aliasFrac: 0.48, noiseFrac: 0.12},
	SourceRIPEAtlas: {classes: []world.HostClass{world.ClassRouter, world.ClassISPCustomer, world.ClassWebServer}, baseCount: 5500,
		hostFrac: 0.60, aliasFrac: 0.04, noiseFrac: 0.36},
	SourceHitlist: {classes: []world.HostClass{world.ClassRouter, world.ClassWebServer, world.ClassCDNNode, world.ClassDNSServer, world.ClassISPCustomer}, baseCount: 22000,
		hostFrac: 0.84, aliasFrac: 0.01, noiseFrac: 0.15, sharedFrac: 0.25},
	SourceAddrMiner: {classes: []world.HostClass{world.ClassCDNNode, world.ClassWebServer, world.ClassISPCustomer, world.ClassDNSServer}, baseCount: 35000,
		hostFrac: 0.08, aliasFrac: 0.84, noiseFrac: 0.08},
}

// popularPoolSize bounds the shared pool of "popular" hosts and aliased
// records every toplist draws from. Real toplists overlap heavily because
// they resolve the same popular domains; the shared pool reproduces that
// (Figure 1's domain-source overlap block).
const popularPoolSize = 1500

// domainPool returns the common domain-visible population: the hosts and
// aliased records that any AAAA-resolving collector can stumble on. Its
// size scales with collection scale so overlap fractions stay stable.
func domainPool(w *world.World, scale float64) (hosts, aliased []ipaddr.Addr) {
	n := int(6000 * scale)
	if n < 100 {
		n = 100
	}
	samp := w.NewSampler(ipaddr.Mix64(w.Seed(), 0xd0d0d0d0), domainClasses...)
	hosts = samp.Hosts(n)
	aliasSamp := w.NewSampler(ipaddr.Mix64(w.Seed(), 0xd0d0d0d1))
	aliased = aliasSamp.Aliased(int(5000 * scale))
	return hosts, aliased
}

// popularPools returns the popular slice of the common domain pool: the
// hosts and aliased records behind the Internet's most-visited domains.
// Popular ⊂ domain-visible, so toplists overlap both each other and the
// big AAAA collectors (Censys, Rapid7), as Figure 1 shows.
func popularPools(w *world.World, scale float64) (hosts, aliased []ipaddr.Addr) {
	poolHosts, poolAliased := domainPool(w, scale)
	hn, an := popularPoolSize, popularPoolSize
	if hn > len(poolHosts) {
		hn = len(poolHosts)
	}
	if an > len(poolAliased) {
		an = len(poolAliased)
	}
	return poolHosts[:hn], poolAliased[:an]
}

// Collect gathers one source's seed dataset from the world at the
// collection epoch.
func Collect(w *world.World, src Source, cfg CollectConfig) *Dataset {
	cfg.fillDefaults()
	p, ok := profiles[src]
	if !ok {
		return NewDataset(src.String())
	}
	n := int(float64(p.baseCount) * cfg.Scale)
	ds := NewDataset(src.String())
	seed := ipaddr.Mix64(cfg.Seed, uint64(src))

	hosts := int(float64(n) * p.hostFrac)
	aliases := int(float64(n) * p.aliasFrac)
	noise := n - hosts - aliases

	if p.popular > 0 {
		// Toplists draw from the shared popular pools, so distinct
		// toplists overlap on the same hosts and aliased records.
		poolHosts, poolAliased := popularPools(w, cfg.Scale)
		rng := newPoolRand(seed)
		for i := 0; i < hosts && len(poolHosts) > 0; i++ {
			ds.Addrs.Add(poolHosts[rng.Intn(len(poolHosts))])
		}
		for i := 0; i < aliases && len(poolAliased) > 0; i++ {
			ds.Addrs.Add(poolAliased[rng.Intn(len(poolAliased))])
		}
	} else {
		fromPoolHosts, fromPoolAliases := 0, 0
		if p.sharedFrac > 0 {
			fromPoolHosts = int(float64(hosts) * p.sharedFrac)
			fromPoolAliases = int(float64(aliases) * p.sharedFrac)
			poolHosts, poolAliased := domainPool(w, cfg.Scale)
			rng := newPoolRand(ipaddr.Mix64(seed, 4))
			for i := 0; i < fromPoolHosts && len(poolHosts) > 0; i++ {
				ds.Addrs.Add(poolHosts[rng.Intn(len(poolHosts))])
			}
			for i := 0; i < fromPoolAliases && len(poolAliased) > 0; i++ {
				ds.Addrs.Add(poolAliased[rng.Intn(len(poolAliased))])
			}
		}
		samp := w.NewSampler(seed, p.classes...)
		ds.Addrs.AddAll(samp.Hosts(hosts - fromPoolHosts))
		// Aliased pollution comes from the full region set, not the class
		// filter: wildcard DNS and TGA output land in aliased slabs
		// wherever they are.
		aliasSamp := w.NewSampler(ipaddr.Mix64(seed, 2))
		ds.Addrs.AddAll(aliasSamp.Aliased(aliases - fromPoolAliases))
	}

	noiseSamp := w.NewSampler(ipaddr.Mix64(seed, 3), p.classes...)
	ds.Addrs.AddAll(noiseSamp.TemplateNoise(noise))

	if p.staleFrac > 0 {
		// Archival snapshots include extra unverified in-template records.
		extra := int(float64(n) * p.staleFrac)
		ds.Addrs.AddAll(noiseSamp.TemplateNoise(extra))
	}
	return ds
}

// CollectAll gathers every source.
func CollectAll(w *world.World, cfg CollectConfig) map[Source]*Dataset {
	out := make(map[Source]*Dataset, len(AllSources))
	for _, s := range AllSources {
		out[s] = Collect(w, s, cfg)
	}
	return out
}

// CombineAll unions per-source datasets into the paper's "Full Dataset".
func CombineAll(bySource map[Source]*Dataset) *Dataset {
	all := NewDataset("All Sources")
	for _, s := range AllSources {
		if d, ok := bySource[s]; ok {
			all.Addrs.AddSet(d.Addrs)
		}
	}
	return all
}

// newPoolRand builds the deterministic RNG a toplist uses to draw from the
// popular pools.
func newPoolRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}
