package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCounterVecConcurrentCardinalityBound is the cardinality-flood
// contract, run under -race by `make race`: goroutines hammering a
// CounterVec with unbounded tenant names never grow the series map past
// the cap (+1 for the overflow series), no increment is lost — the
// flood folds into `_overflow` instead — and the Prometheus exposition
// stays deterministic and sorted throughout.
func TestCounterVecConcurrentCardinalityBound(t *testing.T) {
	const maxSeries, goroutines, perG = 8, 8, 400
	r := NewRegistry()
	cv := r.CounterVec("flood_total", "cardinality flood", "tenant", "code")
	cv.SetMaxSeries(maxSeries)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Unbounded names: every call presents a fresh tenant.
				cv.With(fmt.Sprintf("tenant-%d-%d", g, i), "ok").Inc()
				// One well-known tenant everyone shares.
				cv.With("acme", "ok").Inc()
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG * 2
	if got := cv.Sum(); got != total {
		t.Errorf("Sum() = %v, want %d (folding must not lose increments)", got, total)
	}
	series, ok := r.Snapshot()["flood_total"].(map[string]any)
	if !ok {
		t.Fatal("snapshot did not export flood_total as a series map")
	}
	if len(series) > maxSeries+1 {
		t.Errorf("series count %d exceeds cap %d (+1 overflow)", len(series), maxSeries)
	}
	ovf, ok := series[`tenant="_overflow",code="_overflow"`].(float64)
	if !ok || ovf == 0 {
		t.Errorf("overflow series missing or zero: %v", series)
	}
	if got := r.SeriesValue("flood_total", "acme", "ok"); got != goroutines*perG {
		t.Errorf("acme series = %v, want %d", got, goroutines*perG)
	}
	if cv.Overflowed() == 0 {
		t.Error("Overflowed() = 0 after a flood past the cap")
	}

	// Exposition is stable (two renders agree) and the family's sample
	// lines are sorted by label values.
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of an idle registry differ")
	}
	var samples []string
	for _, line := range strings.Split(a.String(), "\n") {
		if strings.HasPrefix(line, "flood_total{") {
			samples = append(samples, line)
		}
	}
	if len(samples) < 2 {
		t.Fatalf("expected multiple flood_total samples, got %d", len(samples))
	}
	if !sort.StringsAreSorted(samples) {
		t.Errorf("flood_total samples not sorted:\n%s", strings.Join(samples, "\n"))
	}
	if problems := LintPrometheus(&a); len(problems) != 0 {
		t.Errorf("exposition fails lint: %v", problems)
	}
}

func TestVecOverflowFoldsPastCap(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("small_total", "tiny cap", "tenant")
	cv.SetMaxSeries(2)
	cv.With("a").Inc()
	cv.With("b").AddInt(2)
	cv.With("c").AddInt(4) // beyond cap: folds
	cv.With("d").AddInt(8) // same
	cv.With("a").Inc()     // existing series unaffected by the fold

	if got := r.SeriesValue("small_total", "a"); got != 2 {
		t.Errorf(`series a = %v, want 2`, got)
	}
	if got := r.SeriesValue("small_total", "b"); got != 2 {
		t.Errorf(`series b = %v, want 2`, got)
	}
	if got := r.SeriesValue("small_total", OverflowLabelValue); got != 12 {
		t.Errorf("overflow series = %v, want 12", got)
	}
	if got := cv.Overflowed(); got != 2 {
		t.Errorf("Overflowed() = %d, want 2", got)
	}
	if got := cv.Sum(); got != 16 {
		t.Errorf("Sum() = %v, want 16", got)
	}
	// SeriesValue never creates: reading an absent series leaves the map
	// unchanged.
	if got := r.SeriesValue("small_total", "never-written"); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
	if n := len(r.Snapshot()["small_total"].(map[string]any)); n != 3 {
		t.Errorf("series count = %d, want 3 (a, b, overflow)", n)
	}
}

func TestGaugeVecAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("depth", "queue depth", "tenant")
	gv.With("a").Set(3)
	gv.With("b").Add(2)
	if got := gv.Sum(); got != 5 {
		t.Errorf("gauge Sum() = %v, want 5", got)
	}
	if got := r.SeriesValue("depth", "a"); got != 3 {
		t.Errorf("gauge series a = %v, want 3", got)
	}

	hv := r.HistogramVec("lat_seconds", "latency", []float64{0.1, 1}, "tenant")
	hv.With("a").Observe(0.0625)
	hv.With("a").Observe(0.5)
	hv.With("a").Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{tenant="a",le="0.1"} 1`,
		`lat_seconds_bucket{tenant="a",le="1"} 2`,
		`lat_seconds_bucket{tenant="a",le="+Inf"} 3`,
		`lat_seconds_sum{tenant="a"} 5.5625`,
		`lat_seconds_count{tenant="a"} 3`,
		`depth{tenant="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problems := LintPrometheus(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("exposition fails lint: %v", problems)
	}
}

func TestVecLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "tenant").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{tenant="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing escaped sample %q:\n%s", want, buf.String())
	}
	if problems := LintPrometheus(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Errorf("escaped exposition fails lint: %v", problems)
	}
}

// TestVecLabelSetsKeyedApart: label sets whose values join to the same
// string under any separator stay distinct series, each exported under
// its own labels.
func TestVecLabelSetsKeyedApart(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("pairs_total", "", "x", "y")
	a, b := cv.With("a\x1fb", "c"), cv.With("a", "b\x1fc")
	if a == b {
		t.Fatal("two label sets share one series")
	}
	a.Inc()
	b.Add(2)
	cv.With("", "ab").Add(4)
	cv.With("ab", "").Add(8)
	for _, c := range []struct {
		x, y string
		want float64
	}{{"a\x1fb", "c", 1}, {"a", "b\x1fc", 2}, {"", "ab", 4}, {"ab", "", 8}} {
		if got := r.SeriesValue("pairs_total", c.x, c.y); got != c.want {
			t.Errorf("series (%q, %q) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pairs_total{x=\"a\x1fb\",y=\"c\"} 1\n",
		"pairs_total{x=\"a\",y=\"b\x1fc\"} 2\n",
		"pairs_total{x=\"\",y=\"ab\"} 4\n",
		"pairs_total{x=\"ab\",y=\"\"} 8\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestVecMisusePanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("vector without labels", func() { r.CounterVec("nolabels_total", "") })
	cv := r.CounterVec("arity_total", "", "tenant", "code")
	mustPanic("wrong arity", func() { cv.With("only-one") })
	mustPanic("kind mismatch", func() { r.GaugeVec("arity_total", "", "tenant", "code") })
	mustPanic("label mismatch", func() { r.CounterVec("arity_total", "", "tenant", "route") })
	r.Counter("scalar_total", "")
	mustPanic("scalar re-registered with labels", func() { r.CounterVec("scalar_total", "", "tenant") })
}

// TestNilVecZeroAllocs extends the zero-alloc acceptance gate to the
// dimensional metrics: a nil registry hands out nil vectors whose With
// returns nil scalar handles, and the variadic argument slice stays on
// the caller's stack, so neither the no-op path nor a lookup of an
// existing one-label series allocates.
func TestNilVecZeroAllocs(t *testing.T) {
	var r *Registry
	cv := r.CounterVec("c_total", "", "tenant", "code")
	gv := r.GaugeVec("g", "", "tenant")
	hv := r.HistogramVec("h_seconds", "", DurationBuckets, "tenant")
	allocs := testing.AllocsPerRun(1000, func() {
		cv.With("acme", "ok").Inc()
		gv.With("acme").Set(3)
		hv.With("acme").Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("nil-vector path allocates %.1f times per iteration, want 0", allocs)
	}

	live := NewRegistry()
	lc := live.CounterVec("c_total", "", "tenant")
	lg := live.GaugeVec("g", "", "tenant")
	lh := live.HistogramVec("h_seconds", "", DurationBuckets, "tenant")
	lc.With("acme").Inc()
	lg.With("acme").Set(1)
	lh.With("acme").Observe(1)
	tenant := "acme"
	allocs = testing.AllocsPerRun(1000, func() {
		lc.With(tenant).Inc()
		lg.With(tenant).Set(3)
		lh.With(tenant).Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("existing one-label series lookup allocates %.1f times per iteration, want 0", allocs)
	}
}
