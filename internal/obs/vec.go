package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families: every registered metric is one named family whose
// series are keyed by a small fixed set of label values (tenant, outcome
// code). A scalar Counter, Gauge or Histogram is the family with no
// labels and exactly one series; a vector's series appear on first use.
// The design constraints:
//
//   - nil-safe everywhere — a nil vector hands out nil scalar handles,
//     so the un-instrumented path stays zero-alloc;
//   - lock-free on the hot path once a series handle is held (handles
//     ARE the scalar Counter/Gauge/Histogram types);
//   - bounded cardinality — each vector folds label sets beyond
//     MaxSeries into one reserved overflow series, so a tenant-ID flood
//     degrades attribution instead of OOMing the registry.

// OverflowLabelValue replaces every label value of a series created
// after a vector hits its series cap.
const OverflowLabelValue = "_overflow"

// DefaultMaxSeries is the per-vector series cap (overflow series
// excluded) unless SetMaxSeries overrides it.
const DefaultMaxSeries = 256

// labelSetKey is the series map key of a label set. A one-label family
// keys a series by its value alone, so looking up an existing series
// allocates nothing; with several labels each value is prefixed by its
// length, so no two label sets share a key whatever bytes they hold.
func labelSetKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	b := make([]byte, 0, 64)
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return string(b)
}

// series is one (label values → scalar) binding; exactly one of c, g, h
// is set, by the family's kind.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// float reads a counter or gauge series (0 for a histogram).
func (s *series) float() float64 {
	if s.c != nil {
		return s.c.Value()
	}
	return s.g.Value()
}

// value is the series' Snapshot value: float64 for a counter or gauge,
// HistogramSnapshot for a histogram.
func (s *series) value() any {
	if s.h != nil {
		return s.h.Snapshot()
	}
	return s.float()
}

// family is the registry's one metric store.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	max      int
	series   map[string]*series
	overflow atomic.Uint64 // label sets folded into the overflow series
}

// setMax adjusts the series cap (existing series are kept even if they
// exceed the new cap; only new label sets fold into overflow).
func (f *family) setMax(n int) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	f.max = n
	f.mu.Unlock()
}

// find returns the series stored under key, or nil; it never creates.
func (f *family) find(key string) *series {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.series[key]
}

// with returns (creating if needed) the series for the given label
// values. Beyond the cap, the overflow series is returned instead.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelSetKey(values)
	if s := f.find(key); s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= f.max {
		// Cardinality bound: fold this label set into the overflow
		// series (which may itself need creating — it does not count
		// against the cap).
		f.overflow.Add(1)
		ovf := make([]string, len(f.labels))
		for i := range ovf {
			ovf[i] = OverflowLabelValue
		}
		key = labelSetKey(ovf)
		if s, ok := f.series[key]; ok {
			return s
		}
		values = ovf
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// sortedSeries snapshots the series sorted by label values, for
// deterministic export.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// sum totals a counter or gauge family over every series.
func (f *family) sum() float64 {
	var sum float64
	for _, s := range f.sortedSeries() {
		sum += s.float()
	}
	return sum
}

// labelString renders a series' label pairs in exposition order:
// `tenant="acme",code="ok"` ("" for a scalar).
func (f *family) labelString(s *series) string {
	var b strings.Builder
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(s.values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format label escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// CounterVec is a counter family partitioned by label values. Obtain
// one from Registry.CounterVec; a nil *CounterVec is valid and hands
// out nil (no-op) counters.
type CounterVec family

// With returns the counter for the given label values (the overflow
// counter beyond the series cap). The number of values must match the
// registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return (*family)(v).with(values).c
}

// SetMaxSeries overrides the vector's series cap (default
// DefaultMaxSeries).
func (v *CounterVec) SetMaxSeries(n int) {
	if v != nil {
		(*family)(v).setMax(n)
	}
}

// Sum returns the total across every series.
func (v *CounterVec) Sum() float64 {
	if v == nil {
		return 0
	}
	return (*family)(v).sum()
}

// Overflowed reports how many label sets were folded into the overflow
// series.
func (v *CounterVec) Overflowed() uint64 {
	if v == nil {
		return 0
	}
	return v.overflow.Load()
}

// GaugeVec is a gauge family partitioned by label values; nil-safe like
// CounterVec.
type GaugeVec family

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return (*family)(v).with(values).g
}

// SetMaxSeries overrides the vector's series cap.
func (v *GaugeVec) SetMaxSeries(n int) {
	if v != nil {
		(*family)(v).setMax(n)
	}
}

// Sum returns the total across every series.
func (v *GaugeVec) Sum() float64 {
	if v == nil {
		return 0
	}
	return (*family)(v).sum()
}

// HistogramVec is a histogram family partitioned by label values; every
// series shares the bounds given at registration. Nil-safe.
type HistogramVec family

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return (*family)(v).with(values).h
}

// SetMaxSeries overrides the vector's series cap.
func (v *HistogramVec) SetMaxSeries(n int) {
	if v != nil {
		(*family)(v).setMax(n)
	}
}
