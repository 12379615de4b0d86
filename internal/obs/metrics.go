package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 (float so fractional
// quantities like dollar cost accumulate exactly like Prometheus
// counters do). All methods are lock-free and nil-safe: handles from a
// nil *Registry are nil and every operation on them is a no-op.
type Counter struct {
	bits atomic.Uint64 // float64 bits, CAS-updated
}

// Add accumulates v (negative deltas are ignored — counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// AddInt accumulates an integer delta.
func (c *Counter) AddInt(v int) { c.Add(float64(v)) }

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the value by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (Prometheus
// cumulative-`le` semantics: an observation lands in the first bucket
// whose upper bound is >= the value, and export accumulates).
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	total  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.sum, v)
	h.total.Add(1)
}

// HistogramSnapshot is a consistent-enough copy for export (individual
// fields are atomically read; a concurrent Observe may straddle Sum and
// Count by one observation, as in every lock-free metrics library).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Cumulative[i] counts
	// observations <= Bounds[i]. Count includes the +Inf bucket.
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      uint64    `json:"count"`
}

// Snapshot exports the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        math.Float64frombits(h.sum.Load()),
	}
	var running uint64
	for i := range h.bounds {
		running += h.counts[i].Load()
		s.Cumulative[i] = running
	}
	s.Count = running + h.counts[len(h.bounds)].Load()
	return s
}

// Bucket presets for the metrics this repo records.
var (
	// DurationBuckets spans 1ms..~65s, doubling — LLM call latency,
	// rate-limit waits, grid-cell wall clock.
	DurationBuckets = ExpBuckets(0.001, 2, 17)
	// LongDurationBuckets spans 100ms..~27h, doubling — growth-cycle
	// wall clock, which covers a full propose→evaluate→promote pass.
	LongDurationBuckets = ExpBuckets(0.1, 2, 20)
	// TokenBuckets spans 16..~32k tokens per call.
	TokenBuckets = ExpBuckets(16, 2, 12)
	// SmallCountBuckets covers per-iteration counts like LFs kept.
	SmallCountBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	// IterationBuckets covers optimizer iteration counts (EM runs up to
	// MaxIter = 100); the low end resolves warm-started fits that
	// converge almost immediately.
	IterationBuckets = []float64{1, 2, 3, 5, 8, 12, 20, 32, 50, 75, 100}
	// BatchSizeBuckets covers serving micro-batch sizes: 1 (an idle
	// daemon serving requests as they come) up to the coalescer cap.
	BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// ExpBuckets returns n bounds starting at start, multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ---------------------------------------------------------------------
// registry

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String is the kind's Prometheus TYPE name.
func (k metricKind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// Registry is a concurrency-safe collection of named metric families.
// Registration is idempotent: asking for an existing name returns the
// same handle (and panics on a kind or label mismatch — a programming
// error). A nil *Registry is valid everywhere and hands out nil no-op
// handles, which is how un-instrumented runs pay nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*family)}
}

// family is the one registration path. A scalar metric is the family
// with no labels; its one series is created here, so it exports (as 0)
// before its first update.
func (r *Registry) family(name, help string, kind metricKind, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.metrics[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		if !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		max:    DefaultMaxSeries,
		series: make(map[string]*series),
	}
	if len(labels) == 0 {
		f.with(nil)
	}
	r.metrics[name] = f
	return f
}

// vecFamily registers a vector: a family with at least one label.
func (r *Registry) vecFamily(name, help string, kind metricKind, bounds []float64, labels []string) *family {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vector metric %q registered without labels", name))
	}
	return r.family(name, help, kind, bounds, labels)
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).with(nil).c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).with(nil).g
}

// Histogram returns (registering if needed) the named histogram. The
// bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindHistogram, bounds, nil).with(nil).h
}

// CounterVec returns (registering if needed) the named counter family
// partitioned by the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return (*CounterVec)(r.vecFamily(name, help, kindCounter, nil, labels))
}

// GaugeVec returns (registering if needed) the named gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return (*GaugeVec)(r.vecFamily(name, help, kindGauge, nil, labels))
}

// HistogramVec returns (registering if needed) the named histogram
// family; every series shares bounds (first registration wins).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return (*HistogramVec)(r.vecFamily(name, help, kindHistogram, bounds, labels))
}

// sorted returns the registered metric names, sorted, for deterministic
// export.
func (r *Registry) sorted() []string {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup returns the named family, or nil when absent.
func (r *Registry) lookup(name string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (counters get the conventional *_total names at registration
// time; this writer does not rename).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.sorted() {
		f := r.metrics[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			labels := f.labelString(s)
			var err error
			if s.h != nil {
				err = writeHistogramSeries(w, name, labels, s.h.Snapshot())
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), fmtFloat(s.float()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// braced wraps a non-empty label string in the exposition's braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogramSeries renders one histogram series — the `_bucket`
// ladder, `_sum` and `_count` — with labels (possibly empty) prefixed
// to the `le` pair.
func writeHistogramSeries(w io.Writer, name, labels string, s HistogramSnapshot) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, le := range s.Bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmtFloat(le), s.Cumulative[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count); err != nil {
		return err
	}
	labels = braced(labels)
	_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, labels, fmtFloat(s.Sum), name, labels, s.Count)
	return err
}

// Snapshot returns every metric's current value keyed by name: float64
// for counters and gauges, HistogramSnapshot for histograms, and for a
// vector a map from each series' label string to its value.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.metrics {
		series := f.sortedSeries()
		if len(f.labels) == 0 {
			out[name] = series[0].value()
			continue
		}
		vec := make(map[string]any, len(series))
		for _, s := range series {
			vec[f.labelString(s)] = s.value()
		}
		out[name] = vec
	}
	return out
}

// WriteJSON renders the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// CounterValue is a convenience read of a registered counter (0 when
// absent) — handy for tests and end-of-run summaries. For a counter
// vector it returns the sum over every series, so callers that predate
// a metric's dimensional split keep reading the same total.
func (r *Registry) CounterValue(name string) float64 {
	f := r.lookup(name)
	if f == nil || f.kind != kindCounter {
		return 0
	}
	return f.sum()
}

// SeriesValue reads one series of a registered counter or gauge family
// (0 when the metric or series is absent); a scalar is the family read
// with no values. Reading a series never creates it.
func (r *Registry) SeriesValue(name string, values ...string) float64 {
	f := r.lookup(name)
	if f == nil || len(values) != len(f.labels) {
		return 0
	}
	s := f.find(labelSetKey(values))
	if s == nil {
		return 0
	}
	return s.float()
}

// Publish exposes the registry's Snapshot under the given expvar name
// (and thereby on -debug-addr's /debug/vars). Publishing the same name
// twice is a no-op rather than the expvar panic, so tests can call it
// repeatedly; the first registry wins for the life of the process.
func (r *Registry) Publish(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
