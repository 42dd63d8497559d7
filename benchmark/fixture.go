package main

import (
	"math/rand"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/seeds"
	"seedscan/internal/world"
)

// sizing fixes how much work one pass of each workload is. Two presets
// exist: fullSize is what the benchmark measures, smokeSize (about 1/50)
// is what the tests and -smoke run.
type sizing struct {
	Name string
	// Set-up runs SetupReps times, and on (up to eight times as often)
	// until SetupMinTime has gone into it.
	SetupReps    int
	SetupMinTime time.Duration

	// repro_icmp: the experiment environment and per-cell budget.
	ReproASes   int
	ReproScale  float64
	ReproBudget int

	// scan_*, serve_read, daemon_serve: the world and collection behind
	// the corpus.
	ASes  int
	Scale float64

	// serve_read: requests per pass.
	LookupsPerPass int
	BulkPerPass    int
	BulkBatch      int

	// daemon_serve: the epoch cap and the probe connection's rate.
	MaxEpochs     int
	DigestEpochs  int
	ProbeRate     int
	RefreshPeriod time.Duration
}

var fullSize = sizing{
	Name: "full", SetupReps: 5, SetupMinTime: 3 * time.Second,
	ReproASes: 150, ReproScale: 0.4, ReproBudget: 12000,
	ASes: 300, Scale: 1,
	LookupsPerPass: 24_000, BulkPerPass: 32, BulkBatch: 1024,
	MaxEpochs: 48, DigestEpochs: 8, ProbeRate: 200, RefreshPeriod: 50 * time.Millisecond,
}

var smokeSize = sizing{
	Name: "smoke", SetupReps: 1,
	ReproASes: 30, ReproScale: 0.01, ReproBudget: 200,
	ASes: 30, Scale: 0.02,
	LookupsPerPass: 400, BulkPerPass: 2, BulkBatch: 64,
	MaxEpochs: 4, DigestEpochs: 2, ProbeRate: 200, RefreshPeriod: 10 * time.Millisecond,
}

// fixture is the part of set-up every workload but repro_icmp shares
// (experiment.NewEnv does the same steps for that one): the world, and
// the seed corpus collected from it.
type fixture struct {
	w      *world.World
	srcs   map[seeds.Source]*seeds.Dataset
	full   *seeds.Dataset
	corpus []ipaddr.Addr // ascending

	worldNewMs, collectMs, combineMs float64
}

// buildFixture builds the world (forcing its lazy regions to materialize,
// so the measured phase does not pay for them), collects every seed
// source at the collection epoch, and moves the world to the scan epoch.
func buildFixture(size sizing, seed uint64) *fixture {
	f := &fixture{}
	start := time.Now()
	f.w = world.New(world.Config{Seed: worldSeed, NumASes: size.ASes})
	f.w.Stats()
	f.worldNewMs = msSince(start)

	f.w.SetEpoch(world.CollectEpoch)
	start = time.Now()
	f.srcs = seeds.CollectAll(f.w, seeds.CollectConfig{Seed: seed, Scale: size.Scale})
	f.collectMs = msSince(start)
	start = time.Now()
	f.full = seeds.CombineAll(f.srcs)
	f.combineMs = msSince(start)
	f.corpus = f.full.SortedSlice()
	f.w.SetEpoch(world.ScanEpoch)
	return f
}

// sourceDatasets lists the per-source datasets in Table 3's order.
func (f *fixture) sourceDatasets() []*seeds.Dataset {
	out := make([]*seeds.Dataset, 0, len(seeds.AllSources))
	for _, src := range seeds.AllSources {
		out = append(out, f.srcs[src])
	}
	return out
}

// layerValues reports the fixture's own layers, plus the two set
// primitives timed over the collected corpus.
func (f *fixture) layerValues() map[string]float64 {
	n := float64(len(f.corpus))
	unsorted := f.full.Slice()
	start := time.Now()
	set := ipaddr.NewSet(unsorted...)
	build := time.Since(start)
	start = time.Now()
	set.Sorted()
	sortD := time.Since(start)
	return map[string]float64{
		"world.new_ms":                 f.worldNewMs,
		"seeds.collect_ms":             f.collectMs,
		"seeds.combine_ms":             f.combineMs,
		"seeds.addrs":                  n,
		"ipaddr.set_build_ns_per_addr": float64(build) / n,
		"ipaddr.sort_ns_per_addr":      float64(sortD) / n,
	}
}

// scanTargets is the scan workloads' fixed target list: every collected
// seed, half as many in-template addresses that need not exist, and half
// as many addresses no AS routes — deduplicated and in ascending order.
// unrouted is how many of the last kind it holds.
func (f *fixture) scanTargets(seed uint64) (targets []ipaddr.Addr, unrouted int) {
	n := len(f.corpus) / 2
	set := ipaddr.NewSetCap(len(f.corpus) + 2*n)
	set.AddAll(f.corpus)
	set.AddAll(f.w.NewSampler(seed).TemplateNoise(n))
	rng := rand.New(rand.NewSource(int64(seed)))
	for unrouted < n {
		a := ipaddr.AddrFrom64s(rng.Uint64(), rng.Uint64())
		if _, routed := f.w.ASNOf(a); !routed && set.Add(a) {
			unrouted++
		}
	}
	return set.Sorted(), unrouted
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
