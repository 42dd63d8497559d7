package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attrs carries structured key/value annotations on spans and events.
type Attrs map[string]any

// Event is the unit every sink receives. One JSONL line per event.
type Event struct {
	// Type is one of "span_start", "span_end", "event", "progress",
	// "metrics".
	Type string `json:"type"`
	// TimeUnixNano is the wall-clock emission time.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Span and Parent identify the span (span_* events) or the enclosing
	// span (point events); 0 means none.
	Span   int64 `json:"span,omitempty"`
	Parent int64 `json:"parent,omitempty"`
	// Name is the span or event name.
	Name string `json:"name,omitempty"`
	// DurationMS is set on span_end events.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Done/Total are set on progress events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Attrs holds structured annotations.
	Attrs Attrs `json:"attrs,omitempty"`
	// Metrics holds the registry snapshot on "metrics" events.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// Sink consumes telemetry events. Implementations must tolerate concurrent
// Emit calls.
type Sink interface {
	Emit(Event)
	Close() error
}

// Tracer creates spans and dispatches events to its sinks. It owns (or is
// given) a Registry so metric updates and trace events share one wiring
// point. A nil Tracer is fully usable: every method no-ops.
type Tracer struct {
	reg    *Registry
	sinks  []Sink
	nextID atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewTracer builds a tracer over the given registry (a fresh one is
// created when reg is nil) emitting to sinks. Zero sinks is valid: the
// tracer then only carries the registry.
func NewTracer(reg *Registry, sinks ...Sink) *Tracer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Tracer{reg: reg, sinks: sinks}
}

// Registry returns the tracer's metrics registry (nil for a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// emit fans an event out to every sink.
func (t *Tracer) emit(ev Event) {
	if t == nil || len(t.sinks) == 0 {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.Emit(ev)
	}
}

// Span is one node of the hierarchical trace: a named interval with a
// parent, annotations, and an ID shared by its start/end events. A nil
// Span is usable; Child on a nil span returns nil.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	ended  atomic.Bool
}

// StartSpan opens a root span.
func (t *Tracer) StartSpan(name string, attrs Attrs) *Span {
	return t.startSpan(name, 0, attrs)
}

func (t *Tracer) startSpan(name string, parent int64, attrs Attrs) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
	t.emit(Event{
		Type:         "span_start",
		TimeUnixNano: s.start.UnixNano(),
		Span:         s.id,
		Parent:       parent,
		Name:         name,
		Attrs:        attrs,
	})
	return s
}

// Child opens a sub-span of s.
func (s *Span) Child(name string, attrs Attrs) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(name, s.id, attrs)
}

// End closes the span. Idempotent; later calls are ignored.
func (s *Span) End() { s.EndWith(nil) }

// EndWith closes the span, attaching final annotations (batch counts,
// budget consumed, hit totals...) to the span_end event.
func (s *Span) EndWith(attrs Attrs) {
	if s == nil || s.ended.Swap(true) {
		return
	}
	now := time.Now()
	s.t.emit(Event{
		Type:         "span_end",
		TimeUnixNano: now.UnixNano(),
		Span:         s.id,
		Parent:       s.parent,
		Name:         s.name,
		DurationMS:   float64(now.Sub(s.start)) / float64(time.Millisecond),
		Attrs:        attrs,
	})
}

// Progress reports done-of-total completion for a long-running unit (an
// experiment grid, a multi-batch run). Sinks may render or log it; the
// JSONL sink records it like any other event.
func (t *Tracer) Progress(name string, done, total int) {
	if t == nil {
		return
	}
	t.emit(Event{
		Type:         "progress",
		TimeUnixNano: time.Now().UnixNano(),
		Name:         name,
		Done:         done,
		Total:        total,
	})
}

// Close emits a final "metrics" event carrying the registry snapshot, then
// closes every sink. Safe to call once; a nil tracer no-ops.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	sinks := t.sinks
	t.mu.Unlock()

	snap := t.reg.Snapshot()
	ev := Event{Type: "metrics", TimeUnixNano: time.Now().UnixNano(), Metrics: &snap}
	var firstErr error
	for _, s := range sinks {
		s.Emit(ev)
	}

	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	for _, s := range sinks {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
