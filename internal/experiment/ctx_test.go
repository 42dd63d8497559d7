package experiment

import (
	"context"
	"io"
	"sync"
	"testing"

	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
)

func TestGridPreCancelledContext(t *testing.T) {
	e := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gens := []string{"6Tree", "EIP"}

	if _, err := e.RunRQ1aCtx(ctx, []proto.Protocol{proto.ICMP}, gens, 500); err != context.Canceled {
		t.Fatalf("RQ1a err = %v, want context.Canceled", err)
	}
	// Every section that runs cells stops on the cancelled context, the
	// ablation (which once ran under context.Background) included.
	p := Params{Protos: []proto.Protocol{proto.ICMP}, Gens: gens, Budget: 500}
	for _, s := range Sections {
		if err := s.Run(ctx, e, p, io.Discard); s.sweeps != nil && err != context.Canceled {
			t.Fatalf("-run %s err = %v, want context.Canceled", s.Name, err)
		}
	}
}

func TestGridCancellationMidRun(t *testing.T) {
	e := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	gens := []string{"6Tree", "EIP", "DET", "6Gen"}
	// Cancel as soon as the first run completes; the grid must not start
	// them all.
	started := 0
	var mu sync.Mutex
	err := grid.RunParallel(ctx, 1, len(gens), func(ctx context.Context, i int) error {
		mu.Lock()
		started++
		mu.Unlock()
		cancel()
		_, err := e.RunTGACtx(ctx, gens[i], e.Full.Slice(), proto.ICMP, 500)
		return err
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started != 1 {
		t.Fatalf("started = %d runs after cancellation, want 1", started)
	}
}

type memSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (m *memSink) Emit(ev telemetry.Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

func (m *memSink) Close() error { return nil }

// TestEnvTelemetryFlow checks that an Env-level tracer sees grid progress
// events, TGA run spans, and scanner/alias counters from one comparison.
func TestEnvTelemetryFlow(t *testing.T) {
	sink := &memSink{}
	tr := telemetry.NewTracer(nil, sink)
	e := NewEnv(EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 1000, Telemetry: tr})

	gens := []string{"6Tree"}
	if _, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, gens, 1000); err != nil {
		t.Fatal(err)
	}

	var progress, runSpans int
	for _, ev := range sink.events {
		switch {
		case ev.Type == "progress":
			progress++
			// One progress event per completed grid cell; the comparison has
			// two unique cells (original + changed treatment) per generator.
			if ev.Total != 2*len(gens) {
				t.Fatalf("progress total = %d, want %d", ev.Total, 2*len(gens))
			}
		case ev.Type == "span_start" && ev.Name == "run":
			runSpans++
		}
	}
	if progress == 0 {
		t.Fatal("no progress events")
	}
	if runSpans != 2 {
		t.Fatalf("run spans = %d, want 2 (original + changed)", runSpans)
	}

	snap := tr.Registry().Snapshot()
	if snap.Counters["scanner.probes_sent.ICMP"] == 0 {
		t.Fatal("scanner counters not wired into env registry")
	}
	if snap.Counters["alias.prefixes_tested"] == 0 {
		t.Fatal("alias counters not wired into env registry")
	}
	if snap.Counters["tga.generated"] == 0 {
		t.Fatal("tga counters not wired into env registry")
	}
	for _, name := range []string{"world.batches", "world.batch.packets"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("%s not wired into env registry", name)
		}
	}
}
