// Command experiments reproduces the paper's evaluation: every table and
// figure, rendered as text. Individual experiments are selectable; sizes
// are scaled-down defaults that preserve the paper's shape.
//
// Usage:
//
//	experiments [-budget N] [-ases N] [-scale F] [-seed N] [-run LIST]
//	            [-resume DIR] [-list-cells] [-gens SET]
//
// -gens picks the generator sweep: "paper" (default, the eight studied
// TGAs), "extended" (adds AddrMiner and 6Prob), or an explicit
// comma-separated list.
//
// where LIST is a comma-separated subset of:
// table1,table3,table4,table5,table6,fig1,fig2,fig3,fig4,fig5,fig6,fig7,
// raw,rq5,rq5time,raw912,ablation (default: all except raw912 and
// ablation, which run only when named). rq5time is the longitudinal
// metrics-over-time table: a multi-epoch daemon run reporting seed decay,
// TGA hit persistence, and alias-set drift. -resume DIR checkpoints every
// completed grid cell to DIR/cells.jsonl and resumes from it on restart;
// -list-cells prints the deduplicated cell plan for the selection and exits
// without scanning.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga/all"
)

func main() {
	budget := flag.Int("budget", 20000, "per-TGA generation budget")
	ases := flag.Int("ases", 300, "number of ASes in the simulated Internet")
	scale := flag.Float64("scale", 1, "seed collection scale factor")
	seed := flag.Uint64("seed", 42, "world seed")
	runList := flag.String("run", "all", "comma-separated experiments to run")
	protosFlag := flag.String("protos", "icmp", "protocols for the TGA sweeps (comma-separated, or 'all')")
	gensFlag := flag.String("gens", "paper", "generators to sweep: 'paper' (the study set), 'extended' (adds AddrMiner and 6Prob), or a comma-separated list")
	trace := flag.String("trace", "", "write a JSONL telemetry event log to this file")
	metrics := flag.Bool("metrics", false, "print final metric values on exit")
	clusterWorkers := flag.Int("cluster-workers", 0, "fan scanning out across N in-process cluster workers (results unchanged)")
	resumeDir := flag.String("resume", "", "checkpoint completed grid cells under this directory and resume from them")
	listCells := flag.Bool("list-cells", false, "print the deduplicated cell plan for the selection and exit")
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(r)] = true
	}
	sel := func(name string) bool {
		if name == "raw912" || name == "ablation" {
			return want[name] // opt-in only: heavy extras
		}
		return want["all"] || want[name]
	}

	var protos []proto.Protocol
	if *protosFlag == "all" {
		protos = proto.All[:]
	} else {
		for _, s := range strings.Split(*protosFlag, ",") {
			p, err := proto.Parse(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			protos = append(protos, p)
		}
	}

	gens := all.Names
	switch *gensFlag {
	case "paper":
	case "extended":
		gens = all.ExtendedNames
	default:
		gens = nil
		for _, s := range strings.Split(*gensFlag, ",") {
			name := strings.TrimSpace(s)
			if _, err := all.New(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			gens = append(gens, name)
		}
	}

	start := time.Now()
	fmt.Printf("# seedscan experiments — budget=%d ases=%d scale=%g seed=%d gens=%s\n\n",
		*budget, *ases, *scale, *seed, *gensFlag)

	var sinks []telemetry.Sink
	if *trace != "" {
		s, err := telemetry.CreateJSONLFile(*trace)
		check(err)
		sinks = append(sinks, s)
	}
	tr := telemetry.NewTracer(nil, sinks...)
	closeTrace = func() { tr.Close() }
	defer tr.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var store grid.Store
	if *resumeDir != "" {
		check(os.MkdirAll(*resumeDir, 0o755))
		js, err := grid.OpenJSONL(filepath.Join(*resumeDir, "cells.jsonl"))
		check(err)
		defer js.Close()
		store = js
	}

	env := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: *seed, NumASes: *ases, CollectScale: *scale, Budget: *budget,
		Telemetry: tr, ClusterWorkers: *clusterWorkers, GridStore: store,
	})

	if *listCells {
		printCellPlan(env, sel, protos, gens, *budget, store)
		return
	}
	fmt.Printf("world: %d regions, %d ASes, %d ground-truth aliased prefixes (%d listed offline)\n",
		len(env.World.Regions()), env.World.ASDB().Len(),
		len(env.World.AliasedPrefixes()), env.Offline.Len())
	fmt.Printf("seeds: %s unique across %d sources\n\n",
		comma(env.Full.Len()), len(env.Sources))

	if sel("table1") {
		fmt.Println(experiment.RenderPriorWork())
	}
	if sel("table3") {
		sum := env.DatasetSummary()
		fmt.Println(sum.Render())
		fmt.Println(sum.RenderWithPaper())
	}
	if sel("table7") {
		fmt.Println(experiment.RenderTable7())
	}
	if sel("fig1") {
		ips, ases := env.SourceOverlaps(false)
		fmt.Println(experiment.RenderOverlap("Figure 1a: seed source overlap by IP", ips))
		fmt.Println(experiment.RenderOverlap("Figure 1b: seed source overlap by AS", ases))
	}
	if sel("fig2") {
		ips, ases := env.SourceOverlaps(true)
		fmt.Println(experiment.RenderOverlap("Figure 2a: responsive overlap by IP", ips))
		fmt.Println(experiment.RenderOverlap("Figure 2b: responsive overlap by AS", ases))
	}
	if sel("fig3") {
		res, err := env.RunRQ1aCtx(ctx, protos, gens, *budget)
		check(err)
		fmt.Println(res.Render())
		fmt.Println(res.RenderFigure())
	}
	if sel("table4") {
		res, err := env.RunTable4Ctx(ctx, gens, *budget)
		check(err)
		fmt.Println(res.Render())
	}
	if sel("fig4") {
		res, err := env.RunRQ1bCtx(ctx, protos, gens, *budget)
		check(err)
		fmt.Println(res.Render())
	}
	if sel("fig5") {
		res, err := env.RunRQ2Ctx(ctx, protos, gens, *budget)
		check(err)
		fmt.Println(res.Render())
		fmt.Println(res.RenderFigure())
	}
	var rq3 *experiment.RQ3Result
	if sel("table5") || sel("table6") || sel("raw") {
		var err error
		rq3, err = env.RunRQ3Ctx(ctx, protos, gens, seeds.AllSources, *budget/4)
		check(err)
	}
	if sel("table5") {
		res, err := env.RunTable5Ctx(ctx, rq3)
		check(err)
		fmt.Println(res.Render())
	}
	if sel("table6") {
		fmt.Println(env.Table6(rq3, 3).Render())
	}
	if sel("raw") {
		for _, p := range protos {
			fmt.Println(rq3.RenderRaw(p))
		}
	}
	if sel("fig6") {
		res, err := env.RunRQ4Ctx(ctx, protos, gens, *budget)
		check(err)
		fmt.Println(res.Render())
		for _, p := range protos {
			fmt.Println(res.RenderCumulativeFigure(p))
		}
	}
	if sel("fig7") {
		res, err := env.RunCrossPortCtx(ctx, gens, *budget/4)
		check(err)
		fmt.Println(res.Render())
	}
	if sel("rq5") {
		recs, err := env.RunRecommendationsCtx(ctx, gens, *budget)
		check(err)
		fmt.Println(experiment.RenderRecommendations(recs))
	}
	if sel("rq5time") {
		res, err := env.RunRQ5TimeCtx(ctx, gens, *budget, 0)
		check(err)
		fmt.Println(res.Render())
	}
	if sel("raw912") {
		grid, err := env.RunRawGridCtx(ctx, protos, gens, nil, *budget)
		check(err)
		for _, p := range protos {
			fmt.Println(grid.Render(p))
		}
	}
	if sel("ablation") {
		// Every k-th All Active seed, not the first 5000: the set is ordered
		// by the protocol that first found each address, so its head holds
		// only addresses the packet path has already seen answer ICMP, which
		// agree with the oracle by construction.
		targets := env.AllActiveSeeds().Slice()
		if n := len(targets); n > 5000 {
			for i := 0; i < 5000; i++ {
				targets[i] = targets[i*n/5000]
			}
			targets = targets[:5000]
		}
		fmt.Printf("Ablation: packet-path vs oracle agreement on %d targets: %.2f%%\n",
			len(targets), 100*env.ScanAgreement(targets, proto.ICMP))
		sizes := []int{256, 1024, 4096, *budget}
		hits, err := env.BatchSizeAblation("DET", proto.ICMP, *budget, sizes)
		check(err)
		fmt.Println("Ablation: DET hits by feedback batch size:")
		for _, bs := range sizes {
			fmt.Printf("  batch %5d -> %d hits\n", bs, hits[bs])
		}
		fmt.Println()
	}

	fmt.Printf("done in %v; %s probe packets sent (virtual scan time %.1fs at 10k pps)\n",
		time.Since(start).Round(time.Millisecond),
		comma(int(env.Scanner.Stats().PacketsSent.Load())),
		env.Scanner.VirtualElapsed())
	if *metrics {
		fmt.Print(tr.Registry().Snapshot().Render())
	}
}

// selectedSpecs compiles the selected experiments into their grid specs,
// mirroring the budgets the run loop uses (RQ3 and Figure 7 run at a
// quarter budget; RQ5's evidence runs are single-protocol).
func selectedSpecs(env *experiment.Env, sel func(string) bool,
	protos []proto.Protocol, gens []string, budget int) []grid.Spec {
	var specs []grid.Spec
	if sel("fig3") {
		specs = append(specs, env.SpecRQ1a(protos, gens, budget))
	}
	if sel("table4") {
		specs = append(specs, env.SpecTable4(gens, budget))
	}
	if sel("fig4") {
		specs = append(specs, env.SpecRQ1b(protos, gens, budget))
	}
	if sel("fig5") {
		specs = append(specs, env.SpecRQ2(protos, gens, budget))
	}
	if sel("table5") || sel("table6") || sel("raw") {
		specs = append(specs, env.SpecRQ3(protos, gens, nil, budget/4))
	}
	if sel("table5") {
		specs = append(specs, env.SpecTable5(gens, len(seeds.AllSources), budget/4))
	}
	if sel("fig6") {
		specs = append(specs, env.SpecRQ4(protos, gens, budget))
	}
	if sel("fig7") {
		specs = append(specs, env.SpecCrossPort(gens, budget/4))
	}
	if sel("rq5") {
		icmp := []proto.Protocol{proto.ICMP}
		specs = append(specs,
			env.SpecRQ1a(icmp, gens, budget),
			env.SpecRQ1b(icmp, gens, budget),
			env.SpecRQ2([]proto.Protocol{proto.TCP443}, gens, budget),
			env.SpecRQ4(icmp, gens, budget))
	}
	if sel("rq5time") {
		specs = append(specs, env.SpecRQ5Time(gens, budget))
	}
	if sel("raw912") {
		specs = append(specs, env.SpecRawGrid(protos, gens, nil, budget))
	}
	if sel("ablation") {
		specs = append(specs, env.SpecBatchAblation("DET", proto.ICMP, budget, []int{256, 1024, 4096, budget}))
	}
	return specs
}

// printCellPlan renders the deduplicated worklist the selection would
// execute: one line per unique cell with the specs that request it, plus
// how many are already checkpointed in the resume store.
func printCellPlan(env *experiment.Env, sel func(string) bool,
	protos []proto.Protocol, gens []string, budget int, store grid.Store) {
	specs := selectedSpecs(env, sel, protos, gens, budget)
	plan := grid.Plan(specs...)
	planned := 0
	for _, s := range specs {
		planned += len(s.Cells)
	}
	fp := env.Fingerprint()
	resumed := 0
	for _, pc := range plan {
		marker := " "
		if store != nil {
			if _, ok := store.Get(pc.Cell.Key(fp)); ok {
				marker = "*"
				resumed++
			}
		}
		fmt.Printf("%s %-52s <- %s\n", marker, pc.Cell.ID(), strings.Join(pc.Specs, ", "))
	}
	fmt.Printf("\n%d cells planned across %d specs, %d unique after dedup", planned, len(specs), len(plan))
	if store != nil {
		fmt.Printf(", %d already checkpointed (*)", resumed)
	}
	fmt.Printf("\nfingerprint: %s\n", fp)
}

// closeTrace flushes the telemetry trace before an error exit (os.Exit
// skips deferred calls).
var closeTrace = func() {}

func check(err error) {
	if err != nil {
		closeTrace()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func comma(n int) string {
	s := fmt.Sprintf("%d", n)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return strings.Join(append([]string{s}, parts...), ",")
}
