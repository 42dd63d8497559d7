package telemetry

import "context"

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// EnsureContext attaches t only when ctx does not already carry a tracer —
// callers that accept an external context keep the caller's wiring, while
// context-free wrappers still get their component's default tracer.
func EnsureContext(ctx context.Context, t *Tracer) context.Context {
	if FromContext(ctx) != nil {
		return ctx
	}
	return NewContext(ctx, t)
}

// FromContext returns the tracer carried by ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// contextWithSpan returns ctx carrying s as the current span.
func contextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// spanFromContext returns the current span carried by ctx, or nil.
func spanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a span as a child of the context's current span (or as a
// root span of the context's tracer when none is active) and returns a
// context carrying it. When ctx has no telemetry, the returned span is nil
// — still safe to use — and ctx is returned unchanged.
func StartSpan(ctx context.Context, name string, attrs Attrs) (context.Context, *Span) {
	if parent := spanFromContext(ctx); parent != nil {
		s := parent.Child(name, attrs)
		return contextWithSpan(ctx, s), s
	}
	if t := FromContext(ctx); t != nil {
		s := t.StartSpan(name, attrs)
		return contextWithSpan(ctx, s), s
	}
	return ctx, nil
}
