// Package obs is the dependency-free telemetry layer of DataSculpt-Go:
// hierarchical tracing (run > iteration > stage spans), a concurrency-
// safe metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus/JSON/expvar exporters), and structured logging via
// log/slog.
//
// The three pillars travel together as an *Obs bundle carried on the
// context, so instrumented layers (core pipeline, experiment runner,
// llm middleware) need no signature changes:
//
//	o, cleanup, _ := obs.Setup(obs.SetupConfig{TracePath: "trace.jsonl"})
//	defer cleanup()
//	ctx := obs.NewContext(context.Background(), o)
//	res, err := core.RunContext(ctx, d, cfg)
//
// Every sink is optional and every handle is nil-safe: with no bundle on
// the context the pipeline sees the no-op tracer, a nil registry and a
// discard logger, and the whole instrumentation path performs zero
// allocations per iteration (asserted by TestNopTelemetryZeroAllocs).
package obs

import (
	"context"
	"log/slog"
)

// Obs bundles the three telemetry pillars. Build it with New (which
// fills nil fields with no-op implementations) or Setup (which opens
// file sinks from CLI-style options).
type Obs struct {
	// Tracer records hierarchical spans; never nil after New.
	Tracer Tracer
	// Metrics is the shared registry. A nil registry is valid: every
	// metric handle obtained from it is a no-op.
	Metrics *Registry
	// Logger is the shared structured logger; never nil after New.
	Logger *slog.Logger
	// stages is the stage clock's family, set by New when Metrics is.
	stages *HistogramVec
}

// New assembles a bundle, substituting no-op implementations for nil
// fields (the registry may stay nil — it is nil-safe throughout).
func New(t Tracer, m *Registry, l *slog.Logger) *Obs {
	if t == nil {
		t = NopTracer()
	}
	if l == nil {
		l = NopLogger()
	}
	return &Obs{Tracer: t, Metrics: m, Logger: l, stages: m.HistogramVec("stage_seconds",
		"Wall clock of each ended span, by span name.", StageBuckets, "stage")}
}

// defaultObs is what FromContext hands out when no bundle was attached:
// all telemetry disabled.
var defaultObs = New(nil, nil, nil)

// Default returns the shared all-disabled bundle.
func Default() *Obs { return defaultObs }

type ctxKey struct{}

type spanCtxKey struct{}

// NewContext attaches a bundle to the context; instrumented layers
// downstream retrieve it with FromContext. A nil bundle attaches the
// disabled default.
func NewContext(ctx context.Context, o *Obs) context.Context {
	if o == nil {
		o = defaultObs
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext returns the attached bundle, or the disabled default. It
// never returns nil and never allocates.
func FromContext(ctx context.Context) *Obs {
	if o, ok := ctx.Value(ctxKey{}).(*Obs); ok && o != nil {
		return o
	}
	return defaultObs
}

// ContextWithSpan attaches a parent span, letting a callee hang its own
// spans underneath a caller's (the experiment runner parents each
// pipeline run span under its grid-cell span this way).
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the attached parent span, or nil.
func SpanFromContext(ctx context.Context) Span {
	if s, ok := ctx.Value(spanCtxKey{}).(Span); ok {
		return s
	}
	return nil
}

// StartSpan opens a span named name: as a child of the context's parent
// span when one is attached, else as a root span of the bundle's tracer.
// Either way the span runs the bundle's stage clock.
func (o *Obs) StartSpan(ctx context.Context, name string) Span {
	if parent := SpanFromContext(ctx); parent != nil {
		return o.clock(parent.Child(name), name)
	}
	return o.StartTrace("", name)
}

// StartTrace opens a root span under traceID (see the package-level
// StartTrace) that runs the bundle's stage clock.
func (o *Obs) StartTrace(traceID, name string) Span {
	return o.clock(StartTrace(o.Tracer, traceID, name), name)
}
