// Multi-TGA example: running generators together (the paper's RQ4).
//
// All eight TGAs run on the same recommended seed dataset (dealiased,
// responsive-only); the example then orders them by marginal contribution
// to the combined hit and AS coverage — Figure 6's construction — showing
// that no single generator dominates and that a few together cover most of
// what all eight find.
//
//	go run ./examples/multitga
package main

import (
	"context"
	"fmt"
	"log"

	"seedscan/internal/experiment"
	"seedscan/internal/proto"
	"seedscan/internal/tga/all"
)

func main() {
	env := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: 21, NumASes: 150, CollectScale: 0.4,
	})
	res, err := env.RunRQ4Ctx(context.Background(), []proto.Protocol{proto.ICMP}, all.Names, 10000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-generator results (ICMP, budget 10k each):")
	fmt.Printf("  %-8s %10s %8s\n", "TGA", "hits", "ASes")
	for gi, g := range res.Gens {
		o := res.At(0, 0, gi).Outcome // RQ4's one row (All Active), first protocol
		fmt.Printf("  %-8s %10d %8d\n", g, o.Hits, o.ASes)
	}

	hitOrder, asOrder := res.Cover(0) // the first (only) protocol, ICMP
	fmt.Println("\ncumulative unique hit contributions (greedy order):")
	for i, c := range hitOrder {
		fmt.Printf("  %d. %-8s +%d -> %d total\n", i+1, c.Name, c.New, c.Total)
	}
	fmt.Println("\ncumulative unique AS contributions (greedy order):")
	for i, c := range asOrder {
		fmt.Printf("  %d. %-8s +%d -> %d total\n", i+1, c.Name, c.New, c.Total)
	}
}
