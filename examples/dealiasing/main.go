// Dealiasing example: why seed dealiasing matters (the paper's RQ1.a).
//
// It feeds one TGA the same seed dataset under the four treatments of
// Table 4 — no dealiasing, offline list only, online /96 testing only,
// and both — and shows how many of the generator's discoveries land in
// aliased regions under each.
//
//	go run ./examples/dealiasing
package main

import (
	"context"
	"fmt"
	"log"

	"seedscan/internal/alias"
	"seedscan/internal/experiment"
	"seedscan/internal/proto"
)

func main() {
	env := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: 11, NumASes: 120, CollectScale: 0.4,
	})
	fmt.Printf("full dataset: %d seeds; ground truth has %d aliased prefixes, %d on the published list\n\n",
		env.Full.Len(), len(env.World.AliasedPrefixes()), env.Offline.Len())

	const budget = 12000
	fmt.Printf("%-10s %12s %12s %10s\n", "treatment", "hits", "aliased", "ASes")
	for _, mode := range alias.Modes {
		seedSet := env.DealiasedSeeds(mode).Slice()
		res, err := env.RunTGACtx(context.Background(), "6Tree", seedSet, proto.ICMP, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12d %12d %10d\n",
			mode, res.Outcome.Hits, res.Outcome.Aliases, res.Outcome.ASes)
	}
	fmt.Println("\nJoint (online+offline) dealiasing nearly eliminates wasted budget in")
	fmt.Println("aliased regions — the paper's RQ1.a takeaway.")
}
