package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed unit of work in a trace tree. Spans are cheap
// handles: the no-op implementation allocates nothing, so instrumented
// hot loops can create them unconditionally. Setters use fixed arity
// (no variadic attribute slices) for the same reason.
//
// A span is not finished until End; attributes set after End are
// dropped. Implementations are safe for concurrent use, though a span
// is normally owned by one goroutine.
type Span interface {
	// Child opens a sub-span under this span.
	Child(name string) Span
	// SetInt / SetFloat / SetStr attach an attribute.
	SetInt(key string, v int64)
	SetFloat(key string, v float64)
	SetStr(key, v string)
	// SetErr records a non-nil error on the span.
	SetErr(err error)
	// End closes the span and delivers it to the tracer's sink. End is
	// idempotent; only the first call records.
	End()
}

// Tracer starts root spans. Sinks shipped with the package: NopTracer
// (free), NewMemoryTracer (tests), NewJSONLTracer (one JSON object per
// finished span, one per line), NewSampledTracer (head/tail sampling
// over either recording sink).
type Tracer interface {
	StartSpan(name string) Span
}

// TraceStarter is implemented by tracers that can adopt a caller-
// supplied trace ID — how the serving gateway joins spans to a W3C
// traceparent arriving over HTTP.
type TraceStarter interface {
	StartTrace(traceID, name string) Span
}

// StartTrace opens a root span under the given trace ID when the tracer
// supports adoption, else a plain root span. An empty traceID always
// falls back to StartSpan.
func StartTrace(t Tracer, traceID, name string) Span {
	if ts, ok := t.(TraceStarter); ok && traceID != "" {
		return ts.StartTrace(traceID, name)
	}
	return t.StartSpan(name)
}

// SpanData is the exported form of a finished span — what the memory
// tracer stores and the JSONL tracer writes per line.
type SpanData struct {
	Trace  string    `json:"trace"`
	Span   string    `json:"span"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// DurationMS is End-Start in milliseconds (redundant with the
	// timestamps, but it is the field trace consumers aggregate on).
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// Int returns an integer attribute (JSON round-trips may deliver it as
// float64 or json.Number; both are handled).
func (d *SpanData) Int(key string) (int64, bool) {
	switch v := d.Attrs[key].(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	case json.Number:
		n, err := v.Int64()
		return n, err == nil
	}
	return 0, false
}

// Str returns a string attribute.
func (d *SpanData) Str(key string) (string, bool) {
	s, ok := d.Attrs[key].(string)
	return s, ok
}

// ---------------------------------------------------------------------
// no-op tracer

type nopTracer struct{}
type nopSpan struct{}

// NopTracer returns the tracer whose spans do nothing and allocate
// nothing (zero-size types box into interfaces without allocation).
func NopTracer() Tracer { return nopTracer{} }

func (nopTracer) StartSpan(string) Span { return nopSpan{} }

func (nopSpan) Child(string) Span        { return nopSpan{} }
func (nopSpan) SetInt(string, int64)     {}
func (nopSpan) SetFloat(string, float64) {}
func (nopSpan) SetStr(string, string)    {}
func (nopSpan) SetErr(error)             {}
func (nopSpan) End()                     {}

// ---------------------------------------------------------------------
// recording spans (shared by the memory and JSONL tracers)

// spanSink receives finished spans and issues span IDs.
type spanSink interface {
	record(d SpanData)
	nextID() uint64
}

type recSpan struct {
	sink   spanSink
	stages *HistogramVec // the stage clock; nil when none runs
	dur    atomic.Int64  // End-Start in nanoseconds, set by End

	mu    sync.Mutex
	data  SpanData
	ended bool
}

func startSpan(sink spanSink, trace, parent, name string) *recSpan {
	id := sink.nextID()
	if trace == "" {
		trace = fmt.Sprintf("t%08x", id)
	}
	return &recSpan{
		sink: sink,
		data: SpanData{
			Trace:  trace,
			Span:   fmt.Sprintf("s%08x", id),
			Parent: parent,
			Name:   name,
			Start:  time.Now(),
		},
	}
}

// Child inherits the stage clock.
func (s *recSpan) Child(name string) Span {
	s.mu.Lock()
	trace, parent := s.data.Trace, s.data.Span
	s.mu.Unlock()
	c := startSpan(s.sink, trace, parent, name)
	c.stages = s.stages
	return c
}

func (s *recSpan) setAttr(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 8)
	}
	s.data.Attrs[key] = v
}

func (s *recSpan) SetInt(key string, v int64)     { s.setAttr(key, v) }
func (s *recSpan) SetFloat(key string, v float64) { s.setAttr(key, v) }
func (s *recSpan) SetStr(key, v string)           { s.setAttr(key, v) }

func (s *recSpan) SetErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Error = err.Error()
	}
}

func (s *recSpan) End() {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	dur := s.data.End.Sub(s.data.Start)
	s.data.DurationMS = float64(dur) / float64(time.Millisecond)
	d := s.data
	s.dur.Store(int64(dur))
	s.mu.Unlock()
	s.stages.With(d.Name).Observe(dur.Seconds())
	s.sink.record(d)
}

// ---------------------------------------------------------------------
// stage clock

// clock attaches o's stage clock to s, a span just started for o: with
// a registry, End takes the span's duration once and observes it in
// stage_seconds{stage=<name>} before any sampling or sink sees the
// span, so spans of dropped traces and of the no-op tracer count too.
// A recording span keeps its own timestamps; any other is wrapped.
func (o *Obs) clock(s Span, name string) Span {
	switch c := s.(type) {
	case *recSpan:
		c.stages = o.stages
	case *clockSpan:
		c.stages = o.stages
	default:
		if o.stages != nil {
			return &clockSpan{Span: s, stages: o.stages, name: name, start: time.Now()}
		}
	}
	return s
}

// clockSpan times a span that keeps no timestamps of its own: the
// no-op tracer's, or one from a tracer outside this package.
type clockSpan struct {
	Span
	stages *HistogramVec
	name   string
	start  time.Time
	dur    atomic.Int64 // nanoseconds; 0 until End
}

func (s *clockSpan) Child(name string) Span {
	return &clockSpan{Span: s.Span.Child(name), stages: s.stages, name: name, start: time.Now()}
}

func (s *clockSpan) End() {
	if d := max(time.Since(s.start), 1); s.dur.CompareAndSwap(0, int64(d)) {
		s.stages.With(s.name).Observe(d.Seconds())
		s.Span.End()
	}
}

// Elapsed returns the duration the stage clock took when s ended — the
// one reading stage_seconds observed, and End-Start of s's SpanData.
// It is 0 while s is open and for a span no clock timed.
func Elapsed(s Span) time.Duration {
	switch s := s.(type) {
	case *clockSpan:
		return time.Duration(s.dur.Load())
	case *recSpan:
		return time.Duration(s.dur.Load())
	}
	return 0
}

// ---------------------------------------------------------------------
// memory tracer

// MemoryTracer collects finished spans in memory, for tests and
// programmatic inspection.
type MemoryTracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []SpanData
}

// NewMemoryTracer returns an empty in-memory tracer.
func NewMemoryTracer() *MemoryTracer { return &MemoryTracer{} }

// StartSpan implements Tracer.
func (t *MemoryTracer) StartSpan(name string) Span { return startSpan(t, "", "", name) }

// StartTrace implements TraceStarter.
func (t *MemoryTracer) StartTrace(traceID, name string) Span { return startSpan(t, traceID, "", name) }

func (t *MemoryTracer) nextID() uint64 { return t.ids.Add(1) }

func (t *MemoryTracer) record(d SpanData) {
	t.mu.Lock()
	t.spans = append(t.spans, d)
	t.mu.Unlock()
}

// Spans returns a copy of every finished span, in End order.
func (t *MemoryTracer) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// Named returns the finished spans with the given name.
func (t *MemoryTracer) Named(name string) []SpanData {
	var out []SpanData
	for _, d := range t.Spans() {
		if d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

// Reset discards every recorded span.
func (t *MemoryTracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// ---------------------------------------------------------------------
// JSONL tracer

// JSONLTracer writes each finished span as one JSON object per line.
// Lines are written atomically under a mutex, so spans finishing on
// different goroutines can never interleave bytes. Children end before
// their parents, so a trace reads leaves-first; group with jq by the
// trace/parent fields.
type JSONLTracer struct {
	ids atomic.Uint64

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer wraps a writer. The tracer does not close or flush w;
// the caller owns its lifecycle (Setup wires an *os.File and closes it
// in the cleanup function).
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// StartSpan implements Tracer.
func (t *JSONLTracer) StartSpan(name string) Span { return startSpan(t, "", "", name) }

// StartTrace implements TraceStarter.
func (t *JSONLTracer) StartTrace(traceID, name string) Span { return startSpan(t, traceID, "", name) }

func (t *JSONLTracer) nextID() uint64 { return t.ids.Add(1) }

func (t *JSONLTracer) record(d SpanData) {
	line, err := json.Marshal(d)
	if err != nil { // SpanData attrs are primitives; should not happen
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	if _, err := t.w.Write(line); err != nil && t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Err returns the first write or encode error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
