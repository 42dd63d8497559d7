package world

import (
	"math/rand"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// Sampling gives seed collectors their view of the world. A collector asks
// for hosts of particular classes (domain sources see servers, traceroute
// sources see routers) and receives addresses that exist at the collection
// epoch; it can also ask for in-template noise (DNS records pointing at
// dead addresses) and aliased addresses (hitlists polluted by aliases).

// maxRejects bounds rejection sampling per requested address; regions too
// sparse to sample (privacy-address slabs) are skipped up front.
const maxRejects = 400

// minSampleDensity is the density below which a region is unsampleable by
// rejection; such regions (e.g. privacy endhosts) only ever surface via the
// occasional passive observation, which we model as absence.
const minSampleDensity = 1e-3

// Sampler draws addresses from the world with a class bias. Create with
// NewSampler; not safe for concurrent use (it owns its RNG).
type Sampler struct {
	w       *World
	rng     *rand.Rand
	regions []*Region
	cum     []float64 // cumulative expected hosts, aligned with regions
	aliased []*Region
}

// NewSampler builds a sampler over regions matching the class filter
// (nil/empty = all classes). The weight of a region is its expected host
// count, so big regions dominate — as they do for real collectors.
func (w *World) NewSampler(seed uint64, classes ...HostClass) *Sampler {
	want := map[HostClass]bool{}
	for _, c := range classes {
		want[c] = true
	}
	s := &Sampler{w: w, rng: rand.New(rand.NewSource(int64(seed)))}
	total := 0.0
	for _, r := range w.materializeAll() {
		if len(classes) > 0 && !want[r.Class] {
			continue
		}
		if r.Aliased {
			s.aliased = append(s.aliased, r)
			continue
		}
		if r.Density < minSampleDensity {
			continue
		}
		total += r.ExpectedHosts()
		s.regions = append(s.regions, r)
		s.cum = append(s.cum, total)
	}
	return s
}

// pickRegion samples a region weighted by expected host count.
func (s *Sampler) pickRegion() *Region {
	if len(s.regions) == 0 {
		return nil
	}
	u := s.rng.Float64() * s.cum[len(s.cum)-1]
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.regions) {
		i = len(s.regions) - 1
	}
	return s.regions[i]
}

// Hosts samples n distinct addresses that exist at the collection epoch.
// It may return fewer if the eligible space is too sparse.
func (s *Sampler) Hosts(n int) []ipaddr.Addr {
	return s.distinct(n, func(a ipaddr.Addr, r *Region) bool {
		return s.w.existsAt(a, r, CollectEpoch)
	})
}

// ActiveHosts samples n distinct addresses active on p at the collection
// epoch.
func (s *Sampler) ActiveHosts(n int, p proto.Protocol) []ipaddr.Addr {
	return s.distinct(n, func(a ipaddr.Addr, r *Region) bool {
		return s.w.listens(a, r, p, s.w.existsAt(a, r, CollectEpoch))
	})
}

// distinct draws in-template addresses until n distinct ones pass ok,
// giving up after n*maxRejects failed or repeated draws.
func (s *Sampler) distinct(n int, ok func(ipaddr.Addr, *Region) bool) []ipaddr.Addr {
	out := ipaddr.NewSetCap(n)
	misses := 0
	for out.Len() < n && misses < n*maxRejects {
		r := s.pickRegion()
		if r == nil {
			break
		}
		if a := r.Template.Random(s.rng); !ok(a, r) || !out.Add(a) {
			misses++
		}
	}
	return out.Slice()
}

// TemplateNoise samples n in-template addresses with no existence check —
// the stale AAAA records and dead traceroute hops that pollute real seed
// datasets.
func (s *Sampler) TemplateNoise(n int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, n)
	for i := 0; i < n; i++ {
		r := s.pickRegion()
		if r == nil {
			break
		}
		out = append(out, r.Template.Random(s.rng))
	}
	return out
}

// Aliased samples n addresses inside aliased regions (if the sampler's
// class filter admitted any; pass no filter to reach them all).
func (s *Sampler) Aliased(n int) []ipaddr.Addr {
	if len(s.aliased) == 0 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, n)
	for i := 0; i < n; i++ {
		r := s.aliased[s.rng.Intn(len(s.aliased))]
		out = append(out, r.Prefix.RandomWithin(s.rng))
	}
	return out
}

// RegionCount reports how many non-aliased regions the sampler can draw
// from.
func (s *Sampler) RegionCount() int { return len(s.regions) }
