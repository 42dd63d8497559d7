package telemetry

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// memSink records events for assertions.
type memSink struct {
	mu     sync.Mutex
	events []Event
	closed bool
}

func (m *memSink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

func (m *memSink) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

func (m *memSink) byType(typ string) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, ev := range m.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func TestSpanNesting(t *testing.T) {
	sink := &memSink{}
	tr := NewTracer(nil, sink)

	run := tr.StartSpan("run", Attrs{"generator": "6Tree"})
	batch := run.Child("batch", Attrs{"index": 0})
	gen := batch.Child("generate", nil)
	gen.EndWith(Attrs{"proposed": 128})
	scan := batch.Child("scan", nil)
	scan.End()
	batch.End()
	run.EndWith(Attrs{"hits": 7})

	starts := sink.byType("span_start")
	ends := sink.byType("span_end")
	if len(starts) != 4 || len(ends) != 4 {
		t.Fatalf("starts/ends = %d/%d", len(starts), len(ends))
	}
	byName := map[string]Event{}
	for _, ev := range starts {
		byName[ev.Name] = ev
	}
	if byName["run"].Parent != 0 {
		t.Fatal("run span should be a root")
	}
	if byName["batch"].Parent != byName["run"].Span {
		t.Fatal("batch not nested under run")
	}
	if byName["generate"].Parent != byName["batch"].Span {
		t.Fatal("generate not nested under batch")
	}
	if byName["scan"].Parent != byName["batch"].Span {
		t.Fatal("scan not nested under batch")
	}
	// End events carry durations and final attrs.
	for _, ev := range ends {
		if ev.DurationMS < 0 {
			t.Fatalf("negative duration on %s", ev.Name)
		}
		if ev.Name == "run" && ev.Attrs["hits"] != 7 {
			t.Fatalf("run end attrs = %v", ev.Attrs)
		}
	}
	// Double End is idempotent.
	run.End()
	if got := len(sink.byType("span_end")); got != 4 {
		t.Fatalf("double end emitted: %d", got)
	}
}

func TestProgressAndMetricsEvents(t *testing.T) {
	sink := &memSink{}
	tr := NewTracer(nil, sink)
	tr.Registry().Counter("jobs").Add(3)
	tr.Progress("grid", 1, 10)
	tr.Progress("grid", 2, 10)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	prog := sink.byType("progress")
	if len(prog) != 2 || prog[1].Done != 2 || prog[1].Total != 10 {
		t.Fatalf("progress events = %+v", prog)
	}
	mets := sink.byType("metrics")
	if len(mets) != 1 || mets[0].Metrics == nil || mets[0].Metrics.Counters["jobs"] != 3 {
		t.Fatalf("metrics event = %+v", mets)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}
	// Emission after Close is dropped, not racy.
	tr.StartSpan("late", nil).End()
	if got := len(sink.byType("span_start")); got != 0 {
		t.Fatalf("post-close span emitted: %d", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(nil, NewJSONLSink(&buf))
	tr.Registry().Counter("scanner.probes_sent.ICMP").Add(99)
	run := tr.StartSpan("run", Attrs{"budget": 1000})
	batch := run.Child("batch", nil)
	tr.Progress("run", 1, 4)
	batch.EndWith(Attrs{"generated": 64})
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 2 starts + 2 ends + 1 progress + 1 metrics.
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	var sawBatchEnd, sawMetrics, sawProgress bool
	for _, ev := range events {
		switch {
		case ev.Type == "span_end" && ev.Name == "batch":
			sawBatchEnd = true
			// JSON round-trips numbers as float64.
			if ev.Attrs["generated"].(float64) != 64 {
				t.Fatalf("batch attrs = %v", ev.Attrs)
			}
		case ev.Type == "metrics":
			sawMetrics = true
			if ev.Metrics.Counters["scanner.probes_sent.ICMP"] != 99 {
				t.Fatalf("metrics = %+v", ev.Metrics)
			}
		case ev.Type == "progress":
			sawProgress = true
		}
	}
	if !sawBatchEnd || !sawMetrics || !sawProgress {
		t.Fatalf("missing events: batchEnd=%v metrics=%v progress=%v",
			sawBatchEnd, sawMetrics, sawProgress)
	}
}

func TestConcurrentSpansOneSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(nil, NewJSONLSink(&buf))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.StartSpan("work", nil)
				s.Child("stage", nil).End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 8×50×(2 starts + 2 ends) + metrics: every line must parse cleanly.
	if len(events) != 8*50*4+1 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestContextPropagation(t *testing.T) {
	sink := &memSink{}
	tr := NewTracer(nil, sink)
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("tracer not in context")
	}
	// EnsureContext keeps an existing tracer.
	other := NewTracer(nil)
	if FromContext(EnsureContext(ctx, other)) != tr {
		t.Fatal("EnsureContext replaced existing tracer")
	}
	if FromContext(EnsureContext(context.Background(), other)) != other {
		t.Fatal("EnsureContext did not attach tracer")
	}

	ctx1, root := StartSpan(ctx, "outer", nil)
	ctx2, child := StartSpan(ctx1, "inner", nil)
	if SpanFromContext(ctx2) != child {
		t.Fatal("inner span not current")
	}
	child.End()
	root.End()
	starts := sink.byType("span_start")
	if len(starts) != 2 || starts[1].Parent != starts[0].Span {
		t.Fatalf("context nesting broken: %+v", starts)
	}

	// A telemetry-free context yields nil spans that are safe to use.
	ctx3, sp := StartSpan(context.Background(), "nope", nil)
	if sp != nil || SpanFromContext(ctx3) != nil {
		t.Fatal("expected nil span without tracer")
	}
	sp.Child("x", nil).End()
	sp.End()
}
