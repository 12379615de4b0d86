package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files under testdata:
// go test ./internal/obs/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current exposition output")

// goldenRegistry builds the fixture both golden tests render: a scalar
// counter, gauge and histogram, a two-label counter vector with an
// escaped label value and an overflowed cap, and one-label gauge and
// histogram vectors.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("build_info_total", "scalar counter").AddInt(3)
	r.Gauge("queue_depth", "scalar gauge").Set(2.5)
	r.Histogram("fit_seconds", "scalar histogram", []float64{0.1, 1, 10}).Observe(0.5)

	req := r.CounterVec("serve_requests_total", "requests by tenant and outcome", "tenant", "code")
	req.With("acme", "ok").AddInt(9)
	req.With("acme", "shed").Inc()
	req.With("beta", "ok").AddInt(4)
	req.With("we\"ird\\te\nnant", "ok").Inc()
	req.SetMaxSeries(4)
	req.With("flood-1", "ok").Inc()
	req.With("flood-2", "ok").Inc()

	r.GaugeVec("serve_inflight", "in-flight requests", "tenant").With("acme").Set(2)

	lat := r.HistogramVec("serve_request_seconds", "request latency", []float64{0.001, 0.01, 0.1}, "tenant")
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		lat.With("acme").Observe(v)
	}
	lat.With("beta").Observe(0.002)
	return r
}

// checkGolden compares got with testdata/<name>, rewriting it first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestPrometheusExpositionGolden pins the exact text-format rendering —
// family ordering, HELP/TYPE lines, label ordering and escaping, the
// histogram ladder, float formatting — to a golden file, so format
// drift shows up as a reviewable diff instead of a broken dashboard.
func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
	if problems := LintPrometheus(&buf); len(problems) != 0 {
		t.Errorf("golden exposition fails lint: %v", problems)
	}
}

// TestSnapshotGolden pins the WriteJSON rendering of the same fixture:
// scalars as bare values or histogram objects, vectors as maps keyed by
// the exposition label string. The expvar export reads the same
// Snapshot.
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden", buf.Bytes())
}
