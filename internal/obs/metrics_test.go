package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExactUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "operations")
	g := r.Gauge("busy", "busy workers")

	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				c.Add(0.5)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()

	if got, want := c.Value(), float64(goroutines*perG)*1.5; got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	// same name returns the same handle; negative counter deltas ignored
	if r.Counter("ops_total", "") != c {
		t.Error("re-registration returned a new counter")
	}
	if got := r.SeriesValue("ops_total"); got != c.Value() {
		t.Errorf("SeriesValue of the scalar = %v, want %v", got, c.Value())
	}
	c.Add(-100)
	if got := c.Value(); got != float64(goroutines*perG)*1.5 {
		t.Errorf("negative Add moved the counter to %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []uint64{2, 3, 4}; len(s.Cumulative) != 3 ||
		s.Cumulative[0] != want[0] || s.Cumulative[1] != want[1] || s.Cumulative[2] != want[2] {
		t.Errorf("cumulative = %v, want %v", s.Cumulative, want)
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Errorf("sum = %v, want 102.65", s.Sum)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("llm_tokens_total", "billed tokens").Add(1234)
	r.Gauge("grid_workers_busy", "busy workers").Set(3)
	h := r.Histogram("llm_latency_seconds", "call latency", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE llm_tokens_total counter",
		"llm_tokens_total 1234",
		"# TYPE grid_workers_busy gauge",
		"grid_workers_busy 3",
		"# TYPE llm_latency_seconds histogram",
		`llm_latency_seconds_bucket{le="0.5"} 1`,
		`llm_latency_seconds_bucket{le="1"} 2`,
		`llm_latency_seconds_bucket{le="+Inf"} 3`,
		"llm_latency_seconds_sum 5.9",
		"llm_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// every non-comment line is "name[{labels}] value"
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("b", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if decoded["a_total"] != 2.0 {
		t.Errorf("a_total = %v, want 2", decoded["a_total"])
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", DurationBuckets)
	c.Inc()
	g.Set(5)
	h.Observe(1)
	if c != nil || g != nil || h != nil {
		t.Error("nil registry must hand out nil handles")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if v := r.CounterValue("x_total"); v != 0 {
		t.Errorf("CounterValue on nil registry = %v", v)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "")
	r.Gauge("m", "")
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "").Add(7)
	r.Publish("obs_test_metrics")
	r.Publish("obs_test_metrics") // second call must not panic
	r2 := NewRegistry()
	r2.Publish("obs_test_metrics") // nor a different registry
}
