package obs

import (
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace sampling for the serving path. A JSONL sink that records every
// span cannot keep up with a daemon serving thousands of requests per
// second (tens of thousands of spans per second, one fsync-bound line
// each), so the gateway wraps its tracer in a SampledTracer that keeps:
//
//   - a probabilistic head sample (Rate) decided when the trace starts,
//   - every trace that recorded an error (KeepErrors), and
//   - every trace whose root span ran at least SlowLatch (tail latch).
//
// Head-kept traces stream straight through. Undecided traces buffer
// their finished spans (bounded by MaxSpansPerTrace) until the root
// ends, then are flushed whole or dropped whole — a sampled trace file
// always contains complete span trees.

// SamplerOptions tunes NewSampledTracer.
type SamplerOptions struct {
	// Rate is the head-sampling probability in [0, 1]. 1 keeps every
	// trace (the tail rules never need to fire); 0 keeps only traces
	// the error/slow rules latch.
	Rate float64
	// KeepErrors keeps any trace in which a span recorded an error,
	// regardless of the head decision (default semantics: set it).
	KeepErrors bool
	// SlowLatch keeps any trace whose root span duration reaches the
	// threshold; 0 disables the latch.
	SlowLatch time.Duration
	// MaxSpansPerTrace bounds the spans buffered while a trace awaits
	// its verdict (default 512); beyond it spans are counted as
	// truncated and dropped even if the trace is later kept.
	MaxSpansPerTrace int
	// Rand overrides the head-sampling coin (tests); default is the
	// shared math/rand/v2 generator.
	Rand func() float64
}

// SamplerStats is a point-in-time read of a SampledTracer's decisions.
type SamplerStats struct {
	KeptTraces     uint64 `json:"kept_traces"`
	DroppedTraces  uint64 `json:"dropped_traces"`
	TruncatedSpans uint64 `json:"truncated_spans"`
}

// SampledTracer implements Tracer and TraceStarter over a recording
// base tracer.
type SampledTracer struct {
	base spanSink
	opts SamplerOptions

	kept      atomic.Uint64
	dropped   atomic.Uint64
	truncated atomic.Uint64
}

// NewSampledTracer wraps base with the sampling policy in opts. The nop
// tracer (and any tracer this package cannot buffer for) is returned
// unchanged — sampling nothing costs nothing.
func NewSampledTracer(base Tracer, opts SamplerOptions) Tracer {
	sink, ok := base.(spanSink)
	if !ok {
		return base
	}
	if opts.MaxSpansPerTrace <= 0 {
		opts.MaxSpansPerTrace = 512
	}
	if opts.Rate < 0 {
		opts.Rate = 0
	}
	if opts.Rand == nil {
		opts.Rand = mrand.Float64
	}
	return &SampledTracer{base: sink, opts: opts}
}

// StartSpan implements Tracer.
func (t *SampledTracer) StartSpan(name string) Span { return t.StartTrace("", name) }

// StartTrace implements TraceStarter: the head-sampling coin is tossed
// once per trace, here.
func (t *SampledTracer) StartTrace(traceID, name string) Span {
	buf := &traceBuf{
		t:    t,
		keep: t.opts.Rate >= 1 || (t.opts.Rate > 0 && t.opts.Rand() < t.opts.Rate),
	}
	s := startSpan(buf, traceID, "", name)
	buf.root = s.data.Span
	return s
}

// Stats reports the sampler's cumulative decisions.
func (t *SampledTracer) Stats() SamplerStats {
	return SamplerStats{
		KeptTraces:     t.kept.Load(),
		DroppedTraces:  t.dropped.Load(),
		TruncatedSpans: t.truncated.Load(),
	}
}

// traceBuf is the per-trace span sink: it either streams (head-kept) or
// buffers spans until the root span delivers the verdict.
type traceBuf struct {
	t    *SampledTracer
	root string

	mu    sync.Mutex
	keep  bool
	done  bool
	spans []SpanData
}

func (b *traceBuf) nextID() uint64 { return b.t.base.nextID() }

func (b *traceBuf) record(d SpanData) {
	t := b.t
	b.mu.Lock()
	if b.done {
		// A child that outlived its root: follow the trace's verdict.
		keep := b.keep
		b.mu.Unlock()
		if keep {
			t.base.record(d)
		}
		return
	}
	if b.keep {
		// Head-sampled: stream through, no buffering.
		if d.Span == b.root {
			b.done = true
			b.mu.Unlock()
			t.kept.Add(1)
			t.base.record(d)
			return
		}
		b.mu.Unlock()
		t.base.record(d)
		return
	}
	if d.Span != b.root {
		if len(b.spans) >= t.opts.MaxSpansPerTrace {
			b.mu.Unlock()
			t.truncated.Add(1)
			return
		}
		b.spans = append(b.spans, d)
		b.mu.Unlock()
		return
	}
	// Verdict time: the root span just ended.
	keep := false
	if t.opts.KeepErrors && d.Error != "" {
		keep = true
	}
	if !keep && t.opts.KeepErrors {
		for i := range b.spans {
			if b.spans[i].Error != "" {
				keep = true
				break
			}
		}
	}
	if !keep && t.opts.SlowLatch > 0 &&
		d.DurationMS >= float64(t.opts.SlowLatch)/float64(time.Millisecond) {
		keep = true
	}
	b.keep, b.done = keep, true
	spans := b.spans
	b.spans = nil
	b.mu.Unlock()
	if !keep {
		t.dropped.Add(1)
		return
	}
	t.kept.Add(1)
	for i := range spans {
		t.base.record(spans[i])
	}
	t.base.record(d)
}

// ---------------------------------------------------------------------
// W3C trace-context propagation + request IDs

// NewTraceID returns a fresh 32-hex-digit W3C trace ID.
func NewTraceID() string {
	return fmt.Sprintf("%016x%016x", mrand.Uint64(), mrand.Uint64())
}

// NewRequestID returns a fresh 16-hex-digit ID, used both as the
// gateway's X-Request-Id and as the parent-id field of the traceparent
// it emits.
func NewRequestID() string {
	return fmt.Sprintf("%016x", mrand.Uint64())
}

// ParseTraceparent extracts the trace ID from a W3C `traceparent`
// header value (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>`). It returns ok=false — and the caller should mint a fresh
// trace — for empty, malformed, or all-zero inputs.
func ParseTraceparent(h string) (traceID string, sampled bool, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false, false
	}
	version, trace, parent, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if version == "ff" || !isHexLower(version) || !isHexLower(trace) || !isHexLower(parent) || !isHexLower(flags) {
		return "", false, false
	}
	if trace == strings.Repeat("0", 32) || parent == strings.Repeat("0", 16) {
		return "", false, false
	}
	// Only exactly four fields are defined for version 00.
	if version == "00" && len(h) != 55 {
		return "", false, false
	}
	return trace, hexNibble(flags[1])&1 == 1, true
}

// hexNibble decodes one lowercase hex digit (input pre-validated).
func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// FormatTraceparent renders the traceparent the gateway echoes:
// version 00, the request's trace ID, the gateway's request ID as
// parent-id, and the sampled flag set.
func FormatTraceparent(traceID, parentID string) string {
	return "00-" + traceID + "-" + parentID + "-01"
}

// IsHexID reports whether s is exactly n lowercase hex digits — the
// shape W3C trace-context fields require.
func IsHexID(s string, n int) bool { return len(s) == n && isHexLower(s) }

func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
