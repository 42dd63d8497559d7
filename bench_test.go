// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each regenerating its result on a scaled-down
// environment. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks report domain metrics (hits, ASes, aliases…) via
// b.ReportMetric alongside wall-clock cost, so a single run shows both the
// reproduction's shape and its price. Absolute magnitudes are scaled
// (budget ~8k vs the paper's 50M); EXPERIMENTS.md records the shape
// comparison in detail.
package seedscan

import (
	"context"
	"sync"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/experiment"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga/all"
)

// benchBudget is the per-TGA generation budget used across benches.
const benchBudget = 8000

// benchEnv is shared by all benchmarks: building the world and collecting
// seeds once keeps the suite fast while every benchmark still exercises
// its full experiment path.
var benchEnv = sync.OnceValue(func() *experiment.Env {
	e := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: 42, NumASes: 150, CollectScale: 0.4, Budget: benchBudget,
	})
	// Pre-warm the treatment caches so individual benches measure their
	// own experiment, not shared setup.
	e.AllActiveSeeds()
	for _, p := range proto.All {
		e.PortActiveSeeds(p)
	}
	return e
})

// benchGens is the subset of generators used by the heavier sweeps; the
// table-specific benches that need all eight use all.Names.
var benchGens = []string{"6Sense", "DET", "6Tree", "6Gen"}

func BenchmarkTable1_PriorWorkMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiment.RenderPriorWork()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure1_SeedOverlap(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		ips, ases := e.SourceOverlaps(false)
		if i == 0 {
			b.ReportMetric(ips.AnyOther[0]*100, "censys-overlap-%")
			b.ReportMetric(ases.AnyOther[8]*100, "scamper-as-overlap-%")
		}
	}
}

func BenchmarkFigure2_ResponsiveOverlap(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		ips, _ := e.SourceOverlaps(true)
		if i == 0 {
			b.ReportMetric(ips.AnyOther[0]*100, "censys-overlap-%")
		}
	}
}

func BenchmarkTable3_DatasetSummary(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		sum := e.DatasetSummary()
		if i == 0 {
			last := sum.Rows[len(sum.Rows)-1]
			b.ReportMetric(float64(last.Unique), "seeds")
			b.ReportMetric(float64(last.ActiveAny), "active")
			b.ReportMetric(float64(last.ActiveASes), "active-ases")
		}
	}
}

func BenchmarkTable4_AliasesByDealiasing(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable4Ctx(context.Background(), []string{"6Tree", "6Gen"}, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := res.Aliases["6Tree"]
			b.ReportMetric(float64(row[0]), "aliases-none")
			b.ReportMetric(float64(row[3]), "aliases-joint")
		}
	}
}

func BenchmarkFigure3_RQ1aPerfRatio(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, benchGens, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMeanRatios(b, res)
		}
	}
}

func BenchmarkFigure4_RQ1bPerfRatio(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunRQ1bCtx(context.Background(), []proto.Protocol{proto.ICMP}, benchGens, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMeanRatios(b, res)
		}
	}
}

func BenchmarkFigure5_RQ2PerfRatio(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunRQ2Ctx(context.Background(), []proto.Protocol{proto.TCP443}, benchGens, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMeanRatios(b, res)
		}
	}
}

func reportMeanRatios(b *testing.B, res *experiment.ComparisonResult) {
	b.Helper()
	var hits, ases float64
	n := 0
	for _, rows := range res.Ratios {
		for _, r := range rows {
			hits += r.Hits
			ases += r.ASes
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(hits/float64(n), "mean-hits-PR")
		b.ReportMetric(ases/float64(n), "mean-ases-PR")
	}
}

// rq3Sources is the source subset used by the RQ3-derived benches (the
// full 12-source sweep belongs to cmd/experiments).
var rq3Sources = []seeds.Source{
	seeds.SourceHitlist, seeds.SourceScamper, seeds.SourceCensys, seeds.SourceRIPEAtlas,
}

func BenchmarkTable5_SubpopVsBigBudget(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		rq3, err := e.RunRQ3Ctx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree"}, rq3Sources, benchBudget/4)
		if err != nil {
			b.Fatal(err)
		}
		t5, err := e.RunTable5Ctx(context.Background(), rq3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(t5.Rows[0].CombinedASes), "combined-ases")
			b.ReportMetric(float64(t5.Rows[0].BigHits), "big-hits")
		}
	}
}

func BenchmarkTable6_ASCharacterization(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		rq3, err := e.RunRQ3Ctx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Sense"}, rq3Sources, benchBudget/4)
		if err != nil {
			b.Fatal(err)
		}
		t6 := e.Table6(rq3, 3)
		if i == 0 {
			cell := t6.Cells[seeds.SourceHitlist][proto.ICMP]
			b.ReportMetric(float64(cell.Total), "hitlist-ases")
			if len(cell.Top) > 0 {
				b.ReportMetric(cell.Top[0].Share*100, "top-as-share-%")
			}
		}
	}
}

func BenchmarkFigure6_RQ4Cumulative(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunRQ4Ctx(context.Background(), []proto.Protocol{proto.ICMP}, all.Names, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			order := res.HitOrder[proto.ICMP]
			b.ReportMetric(float64(order[0].New), "top-contributor-hits")
			b.ReportMetric(float64(order[len(order)-1].Total), "combined-hits")
		}
	}
}

func BenchmarkFigure7_CrossPort(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := e.RunCrossPortCtx(context.Background(), []string{"6Tree"}, benchBudget/4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// ICMP input scanned on ICMP vs TCP443 input scanned on TCP443.
			b.ReportMetric(float64(res.Hits[0][proto.ICMP]), "icmp-icmp-hits")
			b.ReportMetric(float64(res.Hits[2][proto.TCP443]), "tcp443-tcp443-hits")
		}
	}
}

func BenchmarkTable8_DomainVolumes(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		rows := e.DomainVolumes()
		if len(rows) != 8 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTables9to12_RawRQ1RQ2(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		grid, err := e.RunRawGridCtx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Sense"},
			[]string{"All", "Active-Inactive", "All Active", "ICMP"}, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(grid.Outcome[proto.ICMP]["All"]["6Tree"].Hits), "6tree-all-hits")
			b.ReportMetric(float64(grid.Outcome[proto.ICMP]["All Active"]["6Tree"].Hits), "6tree-allactive-hits")
		}
	}
}

func BenchmarkTables13to15_RawRQ3(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		rq3, err := e.RunRQ3Ctx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree"}, rq3Sources, benchBudget/4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			o := rq3.Outcome[seeds.SourceHitlist][proto.ICMP]["6Tree"]
			b.ReportMetric(float64(o.Hits), "hitlist-6tree-hits")
			b.ReportMetric(float64(o.ASes), "hitlist-6tree-ases")
		}
	}
}

// --- Ablation benchmarks: the design decisions DESIGN.md calls out ---

// BenchmarkAblation_PacketPathVsOracle compares the full packet path
// (build → wire → parse → validate) against the ground-truth oracle for
// the same scan, quantifying what wire-format fidelity costs.
func BenchmarkAblation_PacketPathVsOracle(b *testing.B) {
	e := benchEnv()
	targets := e.AllActiveSeeds().Slice()
	if len(targets) > 4000 {
		targets = targets[:4000]
	}
	b.Run("packet-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Scanner.Scan(append([]ipaddr.Addr(nil), targets...), proto.ICMP)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		o := &experiment.OracleProber{World: e.World}
		for i := 0; i < b.N; i++ {
			o.Scan(targets, proto.ICMP)
		}
	})
	b.Run("agreement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agree := e.ScanAgreement(targets, proto.ICMP)
			if i == 0 {
				b.ReportMetric(agree*100, "agree-%")
			}
		}
	})
}

// BenchmarkAblation_OnlineBatchSize measures how DET's yield depends on
// feedback frequency (smaller batches = more adaptation rounds).
func BenchmarkAblation_OnlineBatchSize(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		hits, err := e.BatchSizeAblation("DET", proto.ICMP, benchBudget, []int{512, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(hits[512]), "hits-batch512")
			b.ReportMetric(float64(hits[4096]), "hits-batch4096")
		}
	}
}

// BenchmarkAblation_DealiasProbeCost measures the probe budget the online
// /96 test consumes per dataset — the cost §6.1 weighs against offline
// filtering.
func BenchmarkAblation_DealiasProbeCost(b *testing.B) {
	e := benchEnv()
	addrs := e.Sources[seeds.SourceAddrMiner].Slice()
	for i := 0; i < b.N; i++ {
		d := alias.New(alias.ModeOnline, nil, e.Scanner, proto.ICMP, uint64(i)+77)
		clean, aliased := d.Split(append([]ipaddr.Addr(nil), addrs...))
		if i == 0 {
			b.ReportMetric(float64(d.ProbesSent()), "probes")
			b.ReportMetric(float64(len(aliased)), "aliased")
			b.ReportMetric(float64(len(clean)), "clean")
		}
	}
}

// BenchmarkTelemetryOverhead quantifies what instrumentation costs: the
// same scan with a wired registry, with the default (nil, no-op)
// telemetry, and the registry/span primitives in isolation. Wiring should
// cost a few percent at most; the nil path should be free.
func BenchmarkTelemetryOverhead(b *testing.B) {
	e := benchEnv()
	targets := e.AllActiveSeeds().Slice()
	if len(targets) > 4000 {
		targets = targets[:4000]
	}
	b.Run("scan-no-telemetry", func(b *testing.B) {
		s := scanner.New(e.World.Link(), scanner.WithSecret(11))
		for i := 0; i < b.N; i++ {
			s.Scan(targets, proto.ICMP)
		}
	})
	b.Run("scan-with-telemetry", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		s := scanner.New(e.World.Link(), scanner.WithSecret(11), scanner.WithTelemetry(reg))
		for i := 0; i < b.N; i++ {
			s.Scan(targets, proto.ICMP)
		}
	})
	b.Run("counter-inc", func(b *testing.B) {
		c := telemetry.NewRegistry().Counter("bench.counter")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("counter-inc-nil", func(b *testing.B) {
		var c *telemetry.Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("span-start-end", func(b *testing.B) {
		tr := telemetry.NewTracer(nil)
		for i := 0; i < b.N; i++ {
			tr.StartSpan("bench", nil).End()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := telemetry.NewRegistry().Histogram("bench.hist")
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 1000))
		}
	})
}
