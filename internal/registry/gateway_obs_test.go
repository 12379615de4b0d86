package registry_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

// newObsGateway is newGatewayServer with a caller-controlled obs bundle,
// for the tests that need a real tracer, logger, or metrics registry.
func newObsGateway(t *testing.T, o *obs.Obs, gwOpts registry.GatewayOptions) (*httptest.Server, *registry.Registry) {
	t.Helper()
	_, _, path := trained(t)
	opts := registry.Options{}
	opts.Serve.Workers = 1
	r := registry.New(o, opts)
	t.Cleanup(r.Close)
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	gw := registry.NewGateway(r, o, gwOpts)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return ts, r
}

func postLabel(t *testing.T, ts *httptest.Server, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/tenants/t/label",
		strings.NewReader(`{"text": "subscribe to my channel"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp
}

// TestGatewayRequestIDAndTraceparent covers the propagation contract:
// a sane incoming X-Request-Id is echoed, anything else is replaced
// with a minted ID; an incoming W3C traceparent's trace ID is adopted
// by the gateway.request span and echoed in the response traceparent.
func TestGatewayRequestIDAndTraceparent(t *testing.T) {
	mem := obs.NewMemoryTracer()
	ts, _ := newObsGateway(t, obs.New(mem, obs.NewRegistry(), nil), registry.GatewayOptions{})

	// No incoming headers: both IDs are minted.
	resp := postLabel(t, ts, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 16 {
		t.Errorf("minted X-Request-Id = %q, want 16 hex digits", rid)
	}
	trace, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	roots := mem.Named("gateway.request")
	if len(roots) != 1 {
		t.Fatalf("%d gateway.request spans, want 1", len(roots))
	}
	if roots[0].Trace != trace {
		t.Errorf("span trace %q != echoed trace %q", roots[0].Trace, trace)
	}
	if got, _ := roots[0].Str("request_id"); got != rid {
		t.Errorf("span request_id %q != echoed header %q", got, rid)
	}
	for attr, want := range map[string]string{"route": "label", "tenant": "t"} {
		if got, _ := roots[0].Str(attr); got != want {
			t.Errorf("span %s = %q, want %q", attr, got, want)
		}
	}
	if got, _ := roots[0].Int("status"); got != 200 {
		t.Errorf("span status = %d, want 200", got)
	}
	if got, _ := roots[0].Int("texts"); got != 1 {
		t.Errorf("span texts = %d, want 1", got)
	}
	// The coalescer's serve.label span joined the same trace.
	labels := mem.Named("serve.label")
	if len(labels) != 1 || labels[0].Trace != trace || labels[0].Parent != roots[0].Span {
		t.Errorf("serve.label did not nest under gateway.request: %+v", labels)
	}

	// Sane incoming ID: echoed verbatim. Incoming traceparent: adopted.
	mem.Reset()
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp = postLabel(t, ts, map[string]string{
		"X-Request-Id": "client-id.42",
		"traceparent":  "00-" + wantTrace + "-00f067aa0ba902b7-01",
	})
	if got := resp.Header.Get("X-Request-Id"); got != "client-id.42" {
		t.Errorf("echoed X-Request-Id = %q, want client-id.42", got)
	}
	if tr, _, _ := obs.ParseTraceparent(resp.Header.Get("Traceparent")); tr != wantTrace {
		t.Errorf("response traceparent trace = %q, want %q", tr, wantTrace)
	}
	if roots := mem.Named("gateway.request"); len(roots) != 1 || roots[0].Trace != wantTrace {
		t.Errorf("gateway.request did not adopt the incoming trace id")
	}

	// Hostile incoming ID (too long / bad charset): replaced, not echoed.
	resp = postLabel(t, ts, map[string]string{"X-Request-Id": "evil header with spaces"})
	if got := resp.Header.Get("X-Request-Id"); strings.Contains(got, "evil") || len(got) != 16 {
		t.Errorf("hostile X-Request-Id echoed as %q, want a minted 16-hex id", got)
	}
}

// TestGatewayStatsEndpoint exercises /v1/stats end to end: per-tenant
// quantiles and error rates over the three windows, runtime gauges, and
// the error-rate accounting of a 5xx.
func TestGatewayStatsEndpoint(t *testing.T) {
	ts, reg := newObsGateway(t, obs.New(nil, obs.NewRegistry(), nil), registry.GatewayOptions{})
	for i := 0; i < 4; i++ {
		if resp := postLabel(t, ts, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	// A shut-down registry turns label requests into 503s, which count
	// against the tenant's SLO.
	reg.Close()
	if resp := postLabel(t, ts, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d, want 503", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Objective float64                      `json:"objective"`
		Windows   []string                     `json:"windows"`
		Tenants   map[string][]obs.WindowStats `json:"tenants"`
		Runtime   obs.RuntimeSnapshot          `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objective != 0.999 {
		t.Errorf("objective = %v, want the 0.999 default", stats.Objective)
	}
	if want := []string{"1m0s", "5m0s", "1h0m0s"}; len(stats.Windows) != 3 ||
		stats.Windows[0] != want[0] || stats.Windows[1] != want[1] || stats.Windows[2] != want[2] {
		t.Errorf("windows = %v, want %v", stats.Windows, want)
	}
	ws, ok := stats.Tenants["t"]
	if !ok || len(ws) != 3 {
		t.Fatalf("tenant t stats missing or wrong arity: %v", stats.Tenants)
	}
	w := ws[0]
	if w.Requests != 5 || w.Errors != 1 {
		t.Fatalf("1m window = %+v, want 5 requests / 1 error", w)
	}
	if w.ErrorRate != 0.2 || w.Availability != 0.8 {
		t.Errorf("error accounting = %+v", w)
	}
	if w.BurnRate < 199 || w.BurnRate > 201 { // 0.2 / 0.001
		t.Errorf("burn rate = %v, want ~200", w.BurnRate)
	}
	if w.P50MS <= 0 || w.P99MS < w.P50MS {
		t.Errorf("quantiles not populated or inverted: %+v", w)
	}
	if stats.Runtime.Goroutines <= 0 || stats.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime snapshot empty: %+v", stats.Runtime)
	}
}

// TestGatewayDefaultObsLatency: a gateway built on the all-disabled
// obs.Default() bundle still feeds real request latencies to its SLO
// tracker, so /v1/stats reports a positive median.
func TestGatewayDefaultObsLatency(t *testing.T) {
	ts, _ := newObsGateway(t, obs.Default(), registry.GatewayOptions{})
	for i := 0; i < 3; i++ {
		if resp := postLabel(t, ts, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Tenants map[string][]obs.WindowStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ws := stats.Tenants["t"]
	if len(ws) == 0 || ws[0].Requests != 3 {
		t.Fatalf("tenant t stats = %+v, want 3 requests in the first window", ws)
	}
	if ws[0].P50MS <= 0 {
		t.Errorf("p50_ms = %v, want > 0", ws[0].P50MS)
	}
}

// TestGatewayStageClockMatchesSpans: a label request traced into memory
// with a registry leaves, for each of its spans (gateway.request,
// serve.label, serve.batch), one stage_seconds observation equal to
// the span's End-Start within a microsecond.
func TestGatewayStageClockMatchesSpans(t *testing.T) {
	mem, mreg := obs.NewMemoryTracer(), obs.NewRegistry()
	ts, _ := newObsGateway(t, obs.New(mem, mreg, nil), registry.GatewayOptions{})
	if resp := postLabel(t, ts, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The middleware and the batch loop end their spans after the
	// response is written.
	deadline := time.Now().Add(5 * time.Second)
	for len(mem.Spans()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	spans := mem.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want gateway.request, serve.label and serve.batch", len(spans))
	}
	vec, _ := mreg.Snapshot()["stage_seconds"].(map[string]any)
	if len(vec) != 3 {
		t.Errorf("stage_seconds has %d stages, want 3", len(vec))
	}
	for _, s := range spans {
		h, _ := vec[`stage="`+s.Name+`"`].(obs.HistogramSnapshot)
		if want := s.End.Sub(s.Start).Seconds(); h.Count != 1 || math.Abs(h.Sum-want) > 1e-6 {
			t.Errorf("stage_seconds{%s} = %d / %vs, span lasted %vs", s.Name, h.Count, h.Sum, want)
		}
	}
}

// TestGatewayMetricsDimensional is the acceptance criterion on the
// exposition: after traffic, /metrics carries the per-tenant request
// counter and latency histogram plus the per-route HTTP counter, and
// the whole scrape passes the Prometheus-text linter.
func TestGatewayMetricsDimensional(t *testing.T) {
	ts, _ := newObsGateway(t, obs.New(nil, obs.NewRegistry(), nil), registry.GatewayOptions{})
	for i := 0; i < 3; i++ {
		postLabel(t, ts, nil)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`serve_requests_total{tenant="t",code="ok"} 3`,
		`serve_request_seconds_bucket{tenant="t",le="+Inf"} 3`,
		`serve_request_seconds_count{tenant="t"} 3`,
		`serve_http_requests_total{route="label",code="200"} 3`,
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if problems := obs.LintPrometheus(bytes.NewReader(body)); len(problems) != 0 {
		t.Errorf("live scrape fails lint:\n%s", strings.Join(problems, "\n"))
	}
}

// TestGatewayAccessLog checks the optional access log: one structured
// line per request carrying route/status/IDs, with the per-second cap
// suppressing (not failing) the overflow.
func TestGatewayAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts, _ := newObsGateway(t, obs.New(nil, obs.NewRegistry(), logger),
		registry.GatewayOptions{AccessLog: true, AccessLogMaxPerSec: 2})

	for i := 0; i < 10; i++ {
		postLabel(t, ts, map[string]string{"X-Request-Id": "fixed-rid"})
	}

	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(raw, `"msg":"access"`) {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("unparseable access line %q: %v", raw, err)
		}
		lines = append(lines, m)
	}
	if len(lines) == 0 {
		t.Fatal("no access log lines emitted")
	}
	// 10 fast requests against a 2/s cap: at most two one-second windows
	// can be touched, so at most 4 lines.
	if len(lines) > 4 {
		t.Errorf("%d access lines for 10 requests under a 2/s cap", len(lines))
	}
	first := lines[0]
	for k, want := range map[string]any{
		"route": "label", "tenant": "t", "request_id": "fixed-rid",
		"method": "POST", "path": "/v1/tenants/t/label",
	} {
		if got := first[k]; got != want {
			t.Errorf("access line %s = %v, want %v", k, got, want)
		}
	}
	if first["status"] != float64(200) || first["texts"] != float64(1) {
		t.Errorf("access line status/texts = %v/%v", first["status"], first["texts"])
	}
	if _, ok := first["trace_id"]; !ok {
		t.Error("access line missing trace_id")
	}
}

// TestGatewayTraceGolden pins the sampled JSONL trace of one gateway
// request — span tree shape, names, propagated IDs, attributes — to a
// golden file. IDs are deterministic (sequential per tracer); only
// timestamps and durations are normalized away.
// Regenerate: go test ./internal/registry/ -run TraceGolden -update
func TestGatewayTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewSampledTracer(obs.NewJSONLTracer(&buf), obs.SamplerOptions{Rate: 1})
	ts, reg := newObsGateway(t, obs.New(tracer, obs.NewRegistry(), nil), registry.GatewayOptions{})

	resp := postLabel(t, ts, map[string]string{
		"X-Request-Id": "feedfacecafebeef",
		"traceparent":  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ts.Close()
	reg.Close() // drain the coalescer so the serve.batch span is flushed

	var spans []obs.SpanData
	dec := json.NewDecoder(&buf)
	for {
		var d obs.SpanData
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		// Timestamps and durations are the only nondeterminism.
		d.Start, d.End, d.DurationMS = time.Time{}, time.Time{}, 0
		if d.Attrs != nil {
			delete(d.Attrs, "duration_ms")
		}
		spans = append(spans, d)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Span < spans[j].Span })

	got, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sampled trace drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
