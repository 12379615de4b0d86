package obs

import (
	"bytes"
	"strings"
	"testing"
)

// lintOne runs the linter over a literal exposition snippet.
func lintOne(s string) []string { return LintPrometheus(strings.NewReader(s)) }

// wantProblem asserts exactly one finding mentioning every needle.
func wantProblem(t *testing.T, input string, needles ...string) {
	t.Helper()
	problems := lintOne(input)
	if len(problems) != 1 {
		t.Fatalf("got %d findings %v, want 1 for:\n%s", len(problems), problems, input)
	}
	for _, n := range needles {
		if !strings.Contains(problems[0], n) {
			t.Errorf("finding %q does not mention %q", problems[0], n)
		}
	}
}

// TestLintAcceptsRegistryOutput is the in-package self-consistency gate
// (cmd/metricslint's TestSelfTestPasses repeats it over HTTP):
// everything this package's own exporter renders —
// scalars, vectors, escaped labels, histogram ladders, runtime gauges —
// must pass its own linter.
func TestLintAcceptsRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "plain counter").Inc()
	r.Gauge("plain_gauge", "plain gauge").Set(-2.5)
	r.Histogram("plain_seconds", "plain histogram", []float64{0.1, 1}).Observe(0.5)
	cv := r.CounterVec("dim_total", "dimensional counter", "tenant", "code")
	cv.With2("acme", "ok").Inc()
	cv.With2("tricky\"quote\\slash\nnewline", "shed").Inc()
	cv.SetMaxSeries(1)
	cv.With2("overflow-me", "ok").Inc()
	hv := r.HistogramVec("dim_seconds", "dimensional histogram", DurationBuckets, "tenant")
	hv.With1("acme").Observe(0.02)
	hv.With1("other").Observe(3)
	SetRuntimeGauges(r)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := LintPrometheus(&buf); len(problems) != 0 {
		t.Errorf("registry exposition fails its own lint:\n%s", strings.Join(problems, "\n"))
	}
}

func TestLintFlagsViolations(t *testing.T) {
	wantProblem(t, "9bad_total 1\n", "invalid metric name")
	wantProblem(t, `ok_total{__reserved="x"} 1`+"\n", "invalid label name", "__reserved")
	wantProblem(t, "# HELP x_total a\n# HELP x_total b\nx_total 1\n", "duplicate # HELP")
	wantProblem(t, "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n", "duplicate # TYPE")
	wantProblem(t, "x_total 1\n# TYPE x_total counter\n", "after the family's samples")
	wantProblem(t, "x_total notanumber\n", "unparseable value")
	wantProblem(t, `x_total{a="unterminated} 1`+"\n", "unterminated")
	wantProblem(t, `x_total{a="bad\escape"} 1`+"\n", "bad escape")
	wantProblem(t, "x_total{a=\"v\"} 1\nx_total{a=\"v\"} 2\n", "duplicate series")

	// Histogram families: bare samples, broken ladders, missing pieces.
	wantProblem(t, "# TYPE h histogram\nh 1\n", "bare sample")
	wantProblem(t,
		"# TYPE h histogram\n"+
			`h_bucket{le="0.1"} 5`+"\n"+
			`h_bucket{le="1"} 3`+"\n"+ // drops: not monotone
			`h_bucket{le="+Inf"} 5`+"\n"+
			"h_sum 1\nh_count 5\n",
		"not monotone")
	wantProblem(t,
		"# TYPE h histogram\n"+
			`h_bucket{le="0.1"} 2`+"\n"+
			"h_sum 1\nh_count 2\n",
		"missing le=\"+Inf\"")
	wantProblem(t,
		"# TYPE h histogram\n"+
			`h_bucket{le="+Inf"} 5`+"\n"+
			"h_sum 1\nh_count 4\n", // +Inf != count
		"+Inf bucket 5 != _count 4")
	wantProblem(t,
		"# TYPE h histogram\n"+
			`h_bucket{le="+Inf"} 5`+"\n"+
			"h_count 5\n",
		"missing _sum")
	wantProblem(t,
		"# TYPE h histogram\n"+
			`h_bucket{le="+Inf"} 5`+"\n"+
			"h_sum 1\n",
		"missing _count")

	// Per-series attribution: only the broken tenant's ladder is named.
	problems := lintOne(
		"# TYPE h histogram\n" +
			`h_bucket{tenant="good",le="1"} 1` + "\n" +
			`h_bucket{tenant="good",le="+Inf"} 1` + "\n" +
			`h_sum{tenant="good"} 1` + "\n" +
			`h_count{tenant="good"} 1` + "\n" +
			`h_bucket{tenant="bad",le="1"} 1` + "\n" +
			`h_sum{tenant="bad"} 1` + "\n" +
			`h_count{tenant="bad"} 1` + "\n")
	if len(problems) != 1 || !strings.Contains(problems[0], `tenant=bad`) {
		t.Errorf("per-series histogram finding = %v, want one naming tenant=bad", problems)
	}
}

func TestLintAcceptsConformingExtras(t *testing.T) {
	clean := strings.Join([]string{
		"# a free-form comment",
		"",
		"x_total 1 1700000000000", // timestamped sample
		`y{a="1",b="2"} 3.5e-2`,
		"# TYPE h histogram",
		`h_bucket{le="0.5"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 1.25",
		"h_count 2",
	}, "\n") + "\n"
	if problems := lintOne(clean); len(problems) != 0 {
		t.Errorf("conforming input flagged: %v", problems)
	}
}
