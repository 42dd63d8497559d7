package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("counter handle not stable")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.load(); got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	r.ObserveDuration("d", 1)
	r.StartTimer("e").Stop()
	if got := r.Counter("a").Load(); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	var tr *Tracer
	sp := tr.StartSpan("x", nil)
	sp.Child("y", nil).EndWith(Attrs{"k": 1})
	sp.annotate("z", nil)
	sp.End()
	tr.Progress("p", 1, 2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; run
// under -race this is the concurrency contract check.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter("own").Add(2)
				r.Gauge("gauge").Set(float64(i))
				r.Histogram("hist").Observe(float64(i%7) + 0.5)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != goroutines*perG {
		t.Fatalf("shared = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("own").Load(); got != 2*goroutines*perG {
		t.Fatalf("own = %d", got)
	}
	h := r.Histogram("hist").Stats()
	if h.Count != goroutines*perG {
		t.Fatalf("hist count = %d", h.Count)
	}
	if h.Min != 0.5 || h.Max != 6.5 {
		t.Fatalf("hist min/max = %v/%v", h.Min, h.Max)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{1, 2, 4, 8, 16} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 5 || s.Sum != 31 {
		t.Fatalf("count/sum = %d/%v", s.Count, s.Sum)
	}
	if s.Min != 1 || s.Max != 16 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if got := s.mean(); got != 6.2 {
		t.Fatalf("mean = %v", got)
	}
	// Log-bucket quantiles are exact for powers of two.
	if s.P50 != 4 {
		t.Fatalf("p50 = %v, want 4", s.P50)
	}
	if s.P95 != 16 {
		t.Fatalf("p95 = %v, want 16", s.P95)
	}
	// Non-positive and tiny observations fold into the lowest bucket
	// without panicking.
	h.Observe(0)
	h.Observe(-3)
	h.Observe(1e-12)
	if got := h.Stats().Count; got != 8 {
		t.Fatalf("count = %d", got)
	}
}

func TestTimers(t *testing.T) {
	r := NewRegistry()
	tm := r.StartTimer("wall")
	time.Sleep(time.Millisecond)
	if d := tm.Stop(); d <= 0 {
		t.Fatalf("elapsed = %v", d)
	}
	if got := r.Histogram("wall").Stats().Count; got != 1 {
		t.Fatalf("wall count = %d", got)
	}
	// Virtual-clock durations are recorded as-is.
	r.ObserveDuration("virtual", 12.5)
	s := r.Histogram("virtual").Stats()
	if s.Count != 1 || s.Sum != 12.5 {
		t.Fatalf("virtual = %+v", s)
	}
}

func TestSnapshotRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("scanner.probes_sent.ICMP").Add(42)
	r.Gauge("scanner.ratelimit.virtual_elapsed_seconds").Set(1.5)
	r.Histogram("scan.seconds").Observe(0.25)
	out := r.Snapshot().Render()
	for _, want := range []string{"scanner.probes_sent.ICMP", "42", "scan.seconds", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
