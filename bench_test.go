// Benchmark harness: BenchmarkSection regenerates every table and figure
// of the paper's evaluation section (experiment.Sections, the table
// cmd/experiments runs) on a scaled-down environment, the ablation
// section's batch-size sweep included; the rest cover the design
// decisions DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute magnitudes are scaled (budget ~8k vs the paper's 50M);
// EXPERIMENTS.md records the shape comparison in detail.
package seedscan

import (
	"bytes"
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

// benchParams sweeps a generator subset on ICMP; the full sweeps belong
// to cmd/experiments.
var benchParams = experiment.Params{
	Protos: []proto.Protocol{proto.ICMP},
	Gens:   []string{"6Sense", "DET", "6Tree", "6Gen"},
	Budget: benchBudget,
}

// BenchmarkSection runs each `experiments -run` section end to end. The
// environment's engine memoizes cells, so the first iteration pays for the
// section's TGA runs (less what an earlier section shared) and later ones
// for its fold and render.
func BenchmarkSection(b *testing.B) {
	e := benchEnv()
	for _, s := range experiment.Sections {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out bytes.Buffer
				if err := s.Run(context.Background(), e, benchParams, &out); err != nil {
					b.Fatal(err)
				}
				if out.Len() == 0 {
					b.Fatal("section printed nothing")
				}
			}
		})
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

// BenchmarkAblation_DealiasProbeCost measures the probe budget the online
// /96 test consumes per dataset — the cost §6.1 weighs against offline
// filtering.
func BenchmarkAblation_DealiasProbeCost(b *testing.B) {
	e := benchEnv()
	addrs := e.Sources[seeds.SourceAddrMiner].Slice()
	for i := 0; i < b.N; i++ {
		d := alias.New(alias.ModeOnline, nil, e.Scanner, proto.ICMP, uint64(i)+77, nil)
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
