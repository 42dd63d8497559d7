package seedscan_test

import (
	"context"
	"fmt"

	"seedscan/internal/alias"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/sixtree"
	"seedscan/internal/world"
)

// Example is the minimal end-to-end pipeline. It builds a small simulated
// IPv6 Internet, collects the IPv6 Hitlist seed source, preprocesses it
// (joint dealiasing + responsive-only, the paper's recommended treatment),
// runs the 6Tree TGA for 10k candidates, scans them on ICMPv6, and reports
// hits and AS diversity.
func Example() {
	// 0. Telemetry: every layer below reports to a tracer. This one has
	//    no sink, so it is silent; `seedscan run -trace` gives it a JSONL
	//    file.
	tr := telemetry.NewTracer(nil)
	defer tr.Close()
	ctx := telemetry.NewContext(context.Background(), tr)

	// 1. A simulated IPv6 Internet: ASes, prefixes, addressing patterns,
	//    aliases, churn. Deterministic given the seed.
	w := world.New(world.Config{Seed: 1, NumASes: 100})

	// 2. Collect seeds at the collection epoch, then move the clock to
	//    scan time (some seeds churn away in between, as in real life).
	w.SetEpoch(world.CollectEpoch)
	hitlist := seeds.Collect(w, seeds.SourceHitlist, seeds.CollectConfig{Seed: 2})
	w.SetEpoch(world.ScanEpoch)
	fmt.Printf("collected %d seeds from %s\n", hitlist.Len(), hitlist.Name)

	// 3. A Scanv6-style scanner over the world's wire, reporting into the
	//    tracer's metrics registry.
	sc := scanner.New(w.Link(), scanner.WithSecret(3), scanner.WithTelemetry(tr.Registry()))

	// 4. Preprocess: joint (offline+online) dealiasing, then keep only
	//    seeds responsive on ICMP — the paper's RQ1 recommendations.
	offline := alias.NewOfflineList(w.AliasedPrefixes()[:len(w.AliasedPrefixes())/2])
	dealiaser := alias.New(alias.ModeJoint, offline, sc, proto.ICMP, 4)
	dealiaser.SetTelemetry(tr.Registry())
	clean, aliased := dealiaser.Split(hitlist.Slice())
	active := sc.ScanActive(clean, proto.ICMP)
	fmt.Printf("preprocessing: %d aliased removed, %d of %d clean seeds responsive\n",
		len(aliased), len(active), len(clean))

	// 5. Generate with 6Tree and scan the candidates, dealiasing output.
	//    RunContext emits the run -> batch -> generate/scan/dealias span
	//    hierarchy to the tracer carried by ctx.
	res, err := tga.RunContext(ctx, sixtree.New(), active, tga.RunConfig{
		Budget:       10000,
		Proto:        proto.ICMP,
		Prober:       sc,
		Dealiaser:    dealiaser,
		ExcludeSeeds: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// 6. Measure with the paper's metrics (filtering the pathological AS).
	out := metrics.Measure(res.Hits, res.AliasedHits, w.ASDB(), world.PathologicalASN)
	fmt.Printf("6Tree: %d candidates -> %d hits across %d ASes (%d aliased discarded)\n",
		res.Generated, out.Hits, out.ASes, out.Aliases)
	fmt.Printf("scan cost: %d packets, %.1fs of virtual scan time at 10k pps\n",
		sc.Stats().PacketsSent.Load(), sc.VirtualElapsed())
	// Output:
	// collected 20599 seeds from IPv6 Hitlist
	// preprocessing: 189 aliased removed, 13080 of 20410 clean seeds responsive
	// 6Tree: 10000 candidates -> 3515 hits across 90 ASes (0 aliased discarded)
	// scan cost: 159772 packets, 16.0s of virtual scan time at 10k pps
}
