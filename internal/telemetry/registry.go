// Package telemetry is the instrumentation layer for the seedscan
// pipeline: a concurrent metrics registry (counters, gauges, histograms
// with wall-clock and virtual-clock timers, and Snapshot.Render for a
// human-readable dump), hierarchical spans emitted to pluggable sinks (the
// JSONL event log, read back by ReadEvents), and progress events for long
// experiment grids.
//
// The package is dependency-free (standard library only) and every type is
// nil-receiver safe: instrumented code calls Counter.Inc, Span.Child,
// Tracer.Progress, and so on unconditionally, and a nil registry, tracer,
// or span turns the call into a no-op. That keeps hot paths free of
// "if telemetry != nil" guards and lets telemetry be wired — or not — at
// construction time only.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 for a nil receiver).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// counts observations v with 2^(i-histZero-1) < v <= 2^(i-histZero);
// values at or below 2^-histZero land in bucket 0.
const (
	histBuckets = 96
	histZero    = 32 // buckets below this hold sub-1.0 observations
)

// Histogram accumulates float64 observations into logarithmic buckets,
// tracking count, sum, min, and max exactly and quantiles approximately
// (within a factor of two). Durations are recorded in seconds, whether
// they come from the wall clock or the scanner's virtual clock.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// bucketOf maps an observation to its logarithmic bucket.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	// Frexp: v = frac × 2^exp with frac in [0.5, 1).
	_, exp := math.Frexp(v)
	b := exp + histZero
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketFloor is the lower bound of bucket b — the quantile
// representative, chosen so that exact powers of two report exactly.
func bucketFloor(b int) float64 {
	return math.Ldexp(1, b-histZero-1)
}

// HistogramStats is a point-in-time summary of a Histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Stats snapshots the histogram. Zero value for a nil receiver.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	return s
}

// quantileLocked returns the approximate q-quantile (bucket upper bound),
// clamped to the exact observed min/max. Caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range h.buckets {
		seen += n
		if seen >= rank {
			u := bucketFloor(b)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Registry is a concurrent, name-indexed collection of counters, gauges,
// and histograms. Metric handles are created lazily on first use and are
// stable thereafter, so hot paths can resolve them once and hold them.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns nil —
// itself a usable no-op — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Timer measures one wall-clock interval into a histogram (in seconds).
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins a wall-clock measurement recorded into the named
// histogram when Stop is called.
func (r *Registry) StartTimer(name string) Timer {
	return Timer{h: r.Histogram(name), start: time.Now()}
}

// Stop records the elapsed wall time and returns it in seconds.
func (t Timer) Stop() float64 {
	d := time.Since(t.start).Seconds()
	t.h.Observe(d)
	return d
}

// ObserveDuration records a duration in seconds into the named histogram.
// It is the virtual-clock counterpart of StartTimer/Stop: callers that
// account simulated time (the scanner's rate limiter) report the elapsed
// virtual seconds here.
func (r *Registry) ObserveDuration(name string, seconds float64) {
	r.Histogram(name).Observe(seconds)
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. Empty for nil.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	return s
}

// Render formats the snapshot as a sorted, human-readable block.
func (s Snapshot) Render() string {
	var sb strings.Builder
	sb.WriteString("telemetry metrics\n")
	sb.WriteString(strings.Repeat("-", 60))
	sb.WriteByte('\n')
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&sb, "  %-44s %12d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&sb, "  %-44s %12.3f\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&sb, "  %-44s n=%d mean=%.4gs p50=%.4gs p95=%.4gs max=%.4gs\n",
			k, h.Count, h.Mean(), h.P50, h.P95, h.Max)
	}
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
