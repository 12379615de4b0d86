package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

const smokeWindow = 300 * time.Millisecond

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, and checks the printed line against BENCHMARK.json: every
// metric of the mode present with its unit, nothing failed, and every
// end-to-end value nonzero.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readRepoSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(context.Background(), w, 1, smokeWindow, traced, smokeSize)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := out.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.plain.errs, out.traced)
			}
			want := make(map[string]string)
			if traced {
				for _, d := range spec.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range spec.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedExpectationFails shows the serving check at work: when
// the offline expectation is off by one bit, every kept response counts
// as a failed operation and the run is not correct.
func TestCorruptedExpectationFails(t *testing.T) {
	w := workloadByName("serve-interactive")
	inst, err := w.setup(context.Background(), &setupEnv{seed: 1, size: smokeSize, root: obs.NopTracer().StartSpan("")})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	s.expect = func(texts []string) [][]float64 {
		rows := s.expected(texts)
		for _, r := range rows {
			r[0] = math.Float64frombits(math.Float64bits(r[0]) ^ 1)
		}
		return rows
	}
	p := newPass(nil)
	if err := s.measure(context.Background(), smokeWindow, p); err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 || p.failed > p.attempted {
		t.Fatalf("failed=%d of %d attempted, want every verified response failed", p.failed, p.attempted)
	}
	out := &outcome{plain: p, setup: []float64{1}}
	if out.result().Correct {
		t.Fatal("a run with mismatched predictions reported correct")
	}
}

// TestCheckRun: a pipeline run whose reported test metric is one ulp off
// what its own model scores fails the check.
func TestCheckRun(t *testing.T) {
	d, err := dataset.Load(smokeSize.dataset, 1, smokeSize.scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Iterations, cfg.Seed = smokeSize.iterations, 1
	res, err := core.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(d, res); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	res.EndMetric = math.Nextafter(res.EndMetric, 2)
	if checkRun(d, res) == nil {
		t.Fatal("one-ulp difference in the test metric accepted")
	}
}

func TestCheckResponse(t *testing.T) {
	proba := []float64{0.25, 0.75}
	body, err := json.Marshal(map[string]any{"tenant": "t", "predictions": []serve.Prediction{
		{Label: 1, Class: "b", Proba: proba}, {Label: 1, Class: "b", Proba: proba},
	}})
	if err != nil {
		t.Fatal(err)
	}
	k := keptResponse{texts: []string{"x", "y"}, body: body}
	if err := checkResponse(k, [][]float64{proba, proba}); err != nil {
		t.Fatalf("matching response rejected: %v", err)
	}
	off := []float64{0.25, math.Nextafter(0.75, 1)}
	if checkResponse(k, [][]float64{proba, off}) == nil {
		t.Fatal("one-ulp difference accepted")
	}
	if checkResponse(k, [][]float64{proba}) == nil {
		t.Fatal("prediction count mismatch accepted")
	}
	if checkResponse(keptResponse{texts: []string{"x"}, body: []byte("{")}, [][]float64{proba}) == nil {
		t.Fatal("undecodable body accepted")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.11, 2}} {
		if got := pick(xs, c.p); got != c.want {
			t.Errorf("pick(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{100, 100, 100, 100}); got != 0 {
		t.Errorf("spread of constants = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{layerDef{"latency_p50_ms", "ms", "lower"}, 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	wide := []float64{70, 130, 80, 120, 100, 90, 110, 100} // spread 35%
	for _, c := range []struct {
		name   string
		a, b   []float64
		want   string
		better string
	}{
		{"same", steady, steady, "agree", "lower"},
		{"slower beyond the bound", steady, scaled(steady, 1.2), "differs", "lower"},
		{"faster beyond the bound", steady, scaled(steady, 0.8), "differs", "lower"},
		{"medians agree, b too wide", steady, wide, "unresolved", "lower"},
		{"medians agree, a too wide", wide, steady, "unresolved", "lower"},
		// Every run of b beats every run of a: wide spreads do not hide that.
		{"wide but separated", wide, scaled(wide, 0.5), "differs", "lower"},
		{"wide, separated the wrong way", wide, scaled(wide, 2), "unresolved", "lower"},
		{"higher is better", wide, scaled(wide, 2), "differs", "higher"},
	} {
		dd := d
		dd.Better = c.better
		if got := verdict(c.a, c.b, dd); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f * x
	}
	return out
}

// TestCompareOutputs: seeds both sets ran must produce the same outputs
// as far as both runs got; a changed token count is a difference.
func TestCompareOutputs(t *testing.T) {
	run := func(seed int64, trace int, outs ...string) runRecord {
		return runRecord{Workload: "w", Seed: seed, Trace: trace, outputsLine: outputsLine{outs}}
	}
	a := &resultSet{Runs: []runRecord{
		run(1, 0, "lfs=1 end_metric=0.5 tokens=100"),
		run(2, 0, "promoted/3", "no_new_lfs/0"),
		run(3, 0, "x"),
		run(1, 1, "ignored: traced"),
	}}
	b := &resultSet{Runs: []runRecord{
		run(1, 0, "lfs=1 end_metric=0.5 tokens=100"),
		run(2, 0, "promoted/3"), // fewer cycles in the window: a prefix agrees
		run(4, 0, "only in b"),
	}}
	if seeds, diffs := compareOutputs(a, b, "w"); seeds != 2 || len(diffs) != 0 {
		t.Fatalf("compareOutputs = %d seeds, %v; want 2 seeds, no difference", seeds, diffs)
	}
	b.Runs[0].Outputs = []string{"lfs=1 end_metric=0.5 tokens=101"}
	b.Runs[1].Outputs = nil
	if seeds, diffs := compareOutputs(a, b, "w"); seeds != 2 || len(diffs) != 2 {
		t.Fatalf("compareOutputs = %d seeds, %v; want 2 seeds, 2 differences", seeds, diffs)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	msd := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	shots := []shot{
		{due: msd(0), start: msd(0.1), done: msd(3), ok: true},
		{due: msd(1), start: msd(1), done: msd(4), ok: true},
		// Both connections busy: sent 1.2ms late, latency counted from due.
		{due: msd(2), start: msd(3.2), done: msd(6), ok: true},
		{due: msd(2.5), start: msd(4), done: msd(7), ok: true},
		// Never sent.
		{due: msd(2.6), start: -1},
	}
	lat := fromDue(shots)
	want := []float64{3, 3, 4, 4.5}
	if len(lat) != len(want) {
		t.Fatalf("fromDue = %v, want %v", lat, want)
	}
	for i := range want {
		if math.Abs(lat[i]-want[i]) > 1e-9 {
			t.Fatalf("fromDue = %v, want %v", lat, want)
		}
	}
	// At 2.6ms three requests are due and unsent (due 2, 2.5, 2.6).
	if got := backlog(shots); got != 3 {
		t.Errorf("backlog = %d, want 3", got)
	}
	// Late by more than 1ms: the requests due at 2 and 2.5ms, and the
	// unsent one.
	if got := lateShare(shots); got != 60 {
		t.Errorf("lateShare = %v, want 60", got)
	}
}

func span(trace, name string, start, end float64) obs.SpanData {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	return obs.SpanData{Trace: trace, Name: name, Start: at(start), End: at(end)}
}

func TestSelfTimesByContainment(t *testing.T) {
	spans := []obs.SpanData{
		span("a", "bench.op", 0, 100),
		span("a", "run", 1, 99),
		span("a", "iteration", 10, 50),
		span("a", "prompt", 20, 40),
		// recorded under bench.op, but nested in prompt by time
		span("a", "llm.chat", 25, 35),
		span("a", "aggregate", 60, 90),
		// another trace's span overlapping in time does not nest
		span("b", "setup", 30, 70),
		// a warm-up server span with no measured root is dropped
		span("c", "gateway.request", 0, 100),
	}
	a := analyze(spans)
	want := map[string]float64{"bench.op": 2, "run": 28, "iteration": 20, "prompt": 10, "llm.chat": 10, "aggregate": 30, "setup": 40}
	for name, ms := range want {
		if got := a.self[name]; got != time.Duration(ms*float64(time.Millisecond)) {
			t.Errorf("self[%s] = %v, want %vms", name, got, ms)
		}
	}
	if _, ok := a.self["gateway.request"]; ok {
		t.Error("unmeasured trace counted")
	}
}

func TestMatchBatches(t *testing.T) {
	labels := []obs.SpanData{
		// Its batch closes 0.05ms after the label returns.
		span("l1", "serve.label", 0, 2.5),
		// Another tenant's batch runs inside this label too; the
		// label's own batch ends with it.
		span("l2", "serve.label", 10, 13),
		// Shed before any batch.
		span("l3", "serve.label", 20, 20.1),
	}
	batches := []obs.SpanData{
		span("x0", "serve.batch", -1, -0.5), // before l1 began
		span("x1", "serve.batch", 2.1, 2.55),
		span("x2", "serve.batch", 10.5, 11.5), // other tenant
		span("x3", "serve.batch", 12.2, 12.99),
	}
	if got, want := matchBatches(labels, batches), []int{1, 3, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("matchBatches = %v, want %v", got, want)
	}
	a := analyze(append(labels, append(batches, span("l1", "client.request", -0.5, 3), span("l2", "client.request", 9, 14), span("l3", "client.request", 19, 21))...))
	if want := time.Duration(0.45*float64(time.Millisecond)) + time.Duration(0.79*float64(time.Millisecond)); absDur(a.labelBatch-want) > time.Microsecond {
		t.Errorf("labelBatch = %v, want %v", a.labelBatch, want)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// TestSchema checks BENCHMARK.json against the definitions in this
// package and against the limits the file must respect: 2-8 workloads,
// at most 16 end-to-end and 128 per-layer metrics, bounds up to 25%.
func TestSchema(t *testing.T) {
	spec := readRepoSpec(t)
	data, err := json.Marshal(specFile())
	if err != nil {
		t.Fatal(err)
	}
	var fromCode benchmarkFile
	if err := json.Unmarshal(data, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*spec, fromCode) {
		t.Fatal("BENCHMARK.json differs from the definitions; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	maxBound := 0.0
	for _, d := range spec.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	var defs []layerDef
	for _, d := range spec.EndToEnd {
		defs = append(defs, d.layerDef)
	}
	for _, d := range spec.PerLayer {
		name(d.Name)
	}
	for _, d := range append(defs, spec.PerLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	var setup *metricDef
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", setup)
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command %v", spec.Command)
	}
}

func readRepoSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &f
}
