package addrminer_test

import (
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/addrminer"
	"seedscan/internal/world"
)

// Example runs three successive measurement campaigns with a shared
// memory store. The paper consumes the AddrMiner hitlist as a seed source
// (§5.1): the output of a DET-derived generator run continuously with
// persistent memory. Each campaign's confirmed hits seed the next, so
// yield compounds; between campaigns the world's clock advances, so some
// remembered addresses churn away, the staleness the paper measures in
// the published hitlists (§6.2).
func Example() {
	w := world.New(world.Config{Seed: 61, NumASes: 120})
	w.SetEpoch(world.CollectEpoch)
	seeds := w.NewSampler(1).Hosts(3000)
	sc := scanner.New(w.Link(), scanner.WithSecret(2))

	store := addrminer.NewStore()
	fmt.Printf("initial seeds: %d; memory: empty\n", len(seeds))

	for campaign := 1; campaign <= 3; campaign++ {
		// Later campaigns run at the scan epoch: part of the remembered
		// population has churned by then.
		if campaign > 1 {
			w.SetEpoch(world.ScanEpoch)
		}
		res, err := tga.Run(addrminer.New(store), seeds, tga.RunConfig{
			Budget: 6000, BatchSize: 1024, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		})
		if err != nil {
			panic(err)
		}
		stale := 0
		for _, a := range store.Snapshot() {
			if !w.ActiveOnAny(a, w.Epoch()) {
				stale++
			}
		}
		fmt.Printf("campaign %d: %5d hits this run; memory %6d addresses (%d stale at current epoch)\n",
			campaign, len(res.Hits), store.Len(), stale)
		// From campaign 2 on, rely on memory alone — long-term mining
		// needs no fresh external seeds.
		seeds = []ipaddr.Addr{}
	}
	// Output:
	// initial seeds: 3000; memory: empty
	// campaign 1:  1651 hits this run; memory   1651 addresses (0 stale at current epoch)
	// campaign 2:  1580 hits this run; memory   2184 addresses (200 stale at current epoch)
	// campaign 3:  1599 hits this run; memory   2554 addresses (200 stale at current epoch)
}
