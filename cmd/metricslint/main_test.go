package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datasculpt/internal/obs"
)

// selfTestRegistry builds a registry covering every shape the exporter
// can render, including the ones most likely to regress: escaped label
// values, the overflow fold, and labeled histogram ladders.
func selfTestRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("lint_plain_total", "scalar counter").AddInt(3)
	r.Gauge("lint_plain_gauge", "scalar gauge").Set(-2.5)
	r.Histogram("lint_plain_seconds", "scalar histogram", []float64{0.1, 1}).Observe(0.5)

	cv := r.CounterVec("lint_requests_total", "dimensional counter", "tenant", "code")
	cv.With("acme", "ok").AddInt(9)
	cv.With("tricky\"quote\\slash\nnewline", "shed").Inc()
	cv.SetMaxSeries(2)
	cv.With("flood-1", "ok").Inc() // forces the overflow fold
	r.GaugeVec("lint_inflight", "dimensional gauge", "tenant").With("acme").Set(2)
	hv := r.HistogramVec("lint_request_seconds", "dimensional histogram",
		obs.DurationBuckets, "tenant")
	hv.With("acme").Observe(0.02)
	hv.With("other").Observe(3)
	return r
}

// TestSelfTestPasses is the exposition-format gate: the repo's own
// exporter, serving a registry with every shape plus the Go runtime
// gauges, must produce text its own linter accepts, scraped over HTTP
// from a bare host:port the way `metricslint -addr` scrapes a daemon.
func TestSelfTestPasses(t *testing.T) {
	reg := selfTestRegistry()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		obs.SetRuntimeGauges(reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w) //nolint:errcheck — client went away
	}))
	defer ts.Close()
	problems, err := run(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("self-test found problems:\n%s", strings.Join(problems, "\n"))
	}
}

func TestAddrRequired(t *testing.T) {
	if _, err := run(""); err == nil {
		t.Error("empty -addr accepted")
	}
}

func TestAddrModeFlagsBadExposition(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Duplicate series + a histogram without +Inf.
		w.Write([]byte("x_total 1\nx_total 1\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"))
	}))
	defer ts.Close()
	problems, err := run(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Errorf("got %d problems %v, want duplicate-series and missing-+Inf", len(problems), problems)
	}
}

func TestAddrModeSurfacesHTTPFailure(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	if _, err := run(ts.URL + "/metrics"); err == nil {
		t.Error("non-200 scrape did not error")
	}
}

func TestMetricsURL(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8080":              "http://localhost:8080/metrics",
		"http://localhost:8080":       "http://localhost:8080/metrics",
		"http://host:1234/":           "http://host:1234/metrics",
		"https://host:8443":           "https://host:8443/metrics",
		"http://host:1234/metrics":    "http://host:1234/metrics",
		"http://host:1234/other/path": "http://host:1234/other/path",
	} {
		got, err := metricsURL(in)
		if err != nil || got != want {
			t.Errorf("metricsURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := metricsURL("http://[::1"); err == nil {
		t.Error("unparseable address accepted")
	}
}
