// Package zdns simulates the paper's domain-resolution stage: billions of
// domain names fed through ZDNS for AAAA lookups (Table 8's pipeline). A
// synthetic Zone maps generated domain names to world addresses with the
// response-rate characteristics the paper reports (toplists resolve far
// better than CT-log dumps), and a Resolver performs concurrent lookups
// with the counters Table 8 tabulates: domains tried, AAAA responses,
// unique addresses.
package zdns

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"seedscan/internal/ipaddr"
	"seedscan/internal/world"
)

// Zone is a synthetic DNS zone: domain names with (possibly empty) AAAA
// record sets. Lookups are deterministic functions of the zone seed.
type Zone struct {
	w    *world.World
	seed uint64
	// aaaaRate is the probability a name has any AAAA records.
	aaaaRate float64
	// hostPool backs the record targets.
	hostPool []ipaddr.Addr
	aliased  []ipaddr.Addr
	// aliasShare is the probability a resolving name points into an
	// aliased slab (wildcard CDN records).
	aliasShare float64
}

// ZoneConfig shapes a synthetic zone.
type ZoneConfig struct {
	// Seed keys name→record determinism.
	Seed uint64
	// AAAARate is the share of names with AAAA records (Table 8: ~4.7%
	// for CT-log domains, ~23-28% for toplists).
	AAAARate float64
}

const (
	// zoneAliasShare is the share of resolving names pointing into aliased
	// slabs (the wildcard-CDN effect).
	zoneAliasShare = 0.4
	// zonePoolSize bounds the host population backing a zone.
	zonePoolSize = 4000
)

// NewZone builds a zone over the world's domain-visible hosts.
func NewZone(w *world.World, cfg ZoneConfig) (*Zone, error) {
	if cfg.AAAARate <= 0 || cfg.AAAARate > 1 {
		return nil, fmt.Errorf("zdns: AAAARate %v out of range", cfg.AAAARate)
	}
	samp := w.NewSampler(mix(cfg.Seed, 0xd15), world.ClassWebServer, world.ClassCDNNode, world.ClassDNSServer)
	pool := samp.Hosts(zonePoolSize)
	if len(pool) == 0 {
		return nil, fmt.Errorf("zdns: world has no domain-visible hosts")
	}
	aliasSamp := w.NewSampler(mix(cfg.Seed, 0xd16))
	return &Zone{
		w: w, seed: cfg.Seed, aaaaRate: cfg.AAAARate,
		hostPool: pool, aliased: aliasSamp.Aliased(zonePoolSize / 2),
		aliasShare: zoneAliasShare,
	}, nil
}

// lookup returns the AAAA records for name (nil when it has none).
func (z *Zone) lookup(name string) []ipaddr.Addr {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	h := mix(z.seed, hashString(name))
	if unit(h) >= z.aaaaRate {
		return nil
	}
	// 1-3 records.
	n := 1 + int(mix(h, 1)%3)
	out := make([]ipaddr.Addr, 0, n)
	for i := 0; i < n; i++ {
		hi := mix(h, uint64(i)+2)
		if len(z.aliased) > 0 && unit(mix(hi, 3)) < z.aliasShare {
			out = append(out, z.aliased[hi%uint64(len(z.aliased))])
		} else {
			out = append(out, z.hostPool[hi%uint64(len(z.hostPool))])
		}
	}
	return out
}

// GenerateNames produces n synthetic domain names (deterministic per
// seed), in the shape of the paper's inputs.
func GenerateNames(seed uint64, n int) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	labels := []string{"www", "mail", "api", "cdn", "shop", "blog", "app", "static", "img", "dev"}
	tlds := []string{"com", "net", "org", "io", "de", "jp", "br", "nl"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s.site%06d.%s",
			labels[rng.Intn(len(labels))], rng.Intn(n*4), tlds[rng.Intn(len(tlds))])
	}
	return out
}

// Stats tallies a resolution campaign, mirroring Table 8's columns.
type Stats struct {
	Domains   int
	AAAAs     int // names that returned at least one record
	Records   int
	UniqueIPs int
}

// Resolver performs concurrent AAAA lookups against a zone.
type Resolver struct {
	Zone    *Zone
	workers int // default 8
}

// ResolveAll looks up every name and returns the unique addresses plus
// campaign statistics.
func (r *Resolver) ResolveAll(names []string) (*ipaddr.Set, Stats) {
	workers := r.workers
	if workers <= 0 {
		workers = 8
	}
	if workers > len(names) {
		workers = len(names)
	}
	var (
		mu    sync.Mutex
		stats = Stats{Domains: len(names)}
		out   = ipaddr.NewSet()
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(names) {
					mu.Unlock()
					return
				}
				name := names[next]
				next++
				mu.Unlock()
				records := r.Zone.lookup(name)
				if len(records) == 0 {
					continue
				}
				mu.Lock()
				stats.AAAAs++
				stats.Records += len(records)
				out.AddAll(records)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.UniqueIPs = out.Len()
	return out, stats
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix(vals ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		v += 0x9e3779b97f4a7c15
		v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
		v = (v ^ v>>27) * 0x94d049bb133111eb
		h ^= v ^ v>>31
		h *= 0x100000001b3
	}
	return h
}

func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
