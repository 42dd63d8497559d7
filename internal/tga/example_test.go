package tga_test

import (
	"errors"
	"fmt"

	"seedscan/internal/experiment"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/tga"
	"seedscan/internal/tga/sixtree"
	"seedscan/internal/world"
)

// LowIID is a custom generator: a deliberately naive baseline that
// expands every /64 observed in the seeds with sequential low interface
// identifiers (::1, ::2, …), the oldest trick in IPv6 scanning (Ullrich
// et al. 2015), round-robin across subnets.
type LowIID struct {
	subnets []ipaddr.Addr // /64 bases, deterministic order
	next    uint64        // current low-IID counter
	cursor  int
}

// Name implements tga.Generator.
func (g *LowIID) Name() string { return "LowIID" }

// Online implements tga.Generator; LowIID ignores scan feedback.
func (g *LowIID) Online() bool { return false }

// Init collects the distinct /64s of the seed set.
func (g *LowIID) Init(seeds []ipaddr.Addr) error {
	if len(seeds) == 0 {
		return errors.New("lowiid: empty seed set")
	}
	set := ipaddr.NewSet()
	for _, s := range seeds {
		set.Add(ipaddr.PrefixFrom(s, 64).Addr())
	}
	g.subnets = set.Sorted()
	g.next = 1
	return nil
}

// NextBatch emits subnet::<counter> round-robin over subnets, increasing
// the counter each full cycle.
func (g *LowIID) NextBatch(n int) []ipaddr.Addr {
	if g.next > 1<<16 {
		return nil // deep enough; a real tool would widen differently
	}
	out := make([]ipaddr.Addr, 0, n)
	for len(out) < n && g.next <= 1<<16 {
		out = append(out, g.subnets[g.cursor].AddLo(g.next))
		g.cursor++
		if g.cursor == len(g.subnets) {
			g.cursor = 0
			g.next++
		}
	}
	return out
}

// Feedback implements tga.Generator.
func (g *LowIID) Feedback([]tga.ProbeResult) {}

// Example_customGenerator plugs a custom generator into the pipeline. The
// paper's concluding discussion calls for "new TGAs specifically
// engineered to use different data sources"; implementing the four-method
// tga.Generator interface is all it takes, and the run driver handles
// scanning, output dealiasing, and budget accounting. LowIID is compared
// against 6Tree on the same seeds.
func Example_customGenerator() {
	env := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: 41, NumASes: 120, CollectScale: 0.4,
	})
	seeds := env.AllActiveSeeds().Slice()
	const budget = 10000

	run := func(g tga.Generator) metrics.Outcome {
		res, err := tga.Run(g, seeds, tga.RunConfig{
			Budget: budget, BatchSize: 1024, Proto: proto.ICMP,
			Prober: env.Scanner, Dealiaser: env.OutputDealiaser(proto.ICMP),
			ExcludeSeeds: true,
		})
		if err != nil {
			panic(err)
		}
		return metrics.Measure(res.Hits, res.AliasedHits, env.World.ASDB(), world.PathologicalASN)
	}

	custom := run(&LowIID{})
	tree := run(sixtree.New())
	fmt.Printf("seeds: %d responsive addresses; budget %d each\n\n", len(seeds), budget)
	fmt.Printf("%-8s %8s %6s %8s\n", "TGA", "hits", "ASes", "aliases")
	fmt.Printf("%-8s %8d %6d %8d\n", "LowIID", custom.Hits, custom.ASes, custom.Aliases)
	fmt.Printf("%-8s %8d %6d %8d\n", "6Tree", tree.Hits, tree.ASes, tree.Aliases)
	// Output:
	// seeds: 22682 responsive addresses; budget 10000 each
	//
	// TGA          hits   ASes  aliases
	// LowIID        124     45        0
	// 6Tree        4898     83        0
}
