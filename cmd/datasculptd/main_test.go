package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/growth"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// trainBundle produces a small servable bundle file, the way a
// `datasculpt -save-bundle` run would.
func trainBundle(t *testing.T) string {
	t.Helper()
	d, err := dataset.Load("youtube", 11, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Iterations = 10
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	res, err := core.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := bundle.Save(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

// startDaemon boots the daemon's serve loop on a loopback listener with
// the given tenants registered, and returns the base URL plus a
// shutdown func that asserts graceful exit.
func startDaemon(t *testing.T, reg *registry.Registry, o *obs.Obs, gwOpts registry.GatewayOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := registry.NewGateway(reg, o, gwOpts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveGateway(ctx, ln, reg, gw, o) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve loop: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("graceful shutdown timed out")
		}
	})
	return "http://" + ln.Addr().String()
}

// TestDaemonEndToEnd labels over real HTTP through both the bare alias
// and a tenant-scoped route, lists bundles, promotes an upload, rolls
// it back, lints the /metrics exposition that traffic left behind, and
// shuts the daemon down gracefully the way a signal would.
func TestDaemonEndToEnd(t *testing.T) {
	path := trainBundle(t)
	o := obs.New(nil, obs.NewRegistry(), nil)
	reg := registry.New(o, registry.Options{Serve: serve.Options{Workers: 2}})
	if err := reg.Register("default", path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("acme", path); err != nil {
		t.Fatal(err)
	}
	base := startDaemon(t, reg, o, registry.GatewayOptions{})

	for _, route := range []string{"/v1/label", "/v1/tenants/acme/label"} {
		resp, err := http.Post(base+route, "application/json",
			strings.NewReader(`{"texts": ["subscribe to my channel", "great song"], "explain": true}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Predictions []serve.Prediction `json:"predictions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Predictions) != 2 {
			t.Fatalf("%s: status %d, %d predictions", route, resp.StatusCode, len(out.Predictions))
		}
		for _, p := range out.Predictions {
			if len(p.Proba) != 2 || p.Class == "" {
				t.Errorf("%s: prediction %+v", route, p)
			}
		}
	}

	resp, err := http.Get(base + "/v1/bundles")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Bundles []registry.Info `json:"bundles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Bundles) != 2 || listing.Bundles[0].Tenant != "default" {
		t.Fatalf("bundles listing: %+v", listing)
	}

	// Hot-swap promote the same artifact (agreement 1.0 passes the
	// gate), then roll back.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/bundles/acme", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	var rep registry.PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Generation != 1 {
		t.Fatalf("promote: status %d, report %+v", resp.StatusCode, rep)
	}
	resp, err = http.Post(base+"/v1/bundles/acme/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}

	// The exposition gate: the live daemon's /metrics must pass the
	// conformance checks a real Prometheus scraper enforces.
	t.Run("metrics-exposition", func(t *testing.T) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		exposition, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(exposition), "serve_batches_total{") {
			t.Fatalf("/metrics: status %d, no serve batches after label traffic:\n%s", resp.StatusCode, exposition)
		}
		if problems := obs.LintPrometheus(strings.NewReader(string(exposition))); len(problems) != 0 {
			t.Errorf("/metrics fails the exposition lint:\n%s", strings.Join(problems, "\n"))
		}
	})

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Tenants != 2 {
		t.Errorf("health: %+v", health)
	}
}

// TestDaemonGrowthEndToEnd is the serve-and-keep-learning smoke test
// (`make grow-smoke`): boot the daemon with the growth loop wired the
// way run() wires it, label real traffic over HTTP so the capture hook
// feeds the reservoir, drive one growth cycle, and watch /v1/growth
// report the promoted lineage.
func TestDaemonGrowthEndToEnd(t *testing.T) {
	path := trainBundle(t)
	cfg := config{
		bundlePath:    path,
		defaultTenant: "default",
		growInterval:  time.Hour, // loop armed but driven manually below
		growStateDir:  t.TempDir(),
		growBudget:    3, growMinCorpus: 4, growScale: 0.3,
		growAgreement: 0.9, growMaxRegression: 0.02,
	}

	var growPtr atomic.Pointer[growth.Daemon]
	reg := registry.New(obs.Default(), registry.Options{
		Serve: serve.Options{Workers: 2},
		Capture: func(tenant string, texts []string) {
			if d := growPtr.Load(); d != nil {
				d.Capture(tenant, texts)
			}
		},
	})
	if err := reg.Register("default", path); err != nil {
		t.Fatal(err)
	}
	growD, err := setupGrowth(cfg, reg, obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	growPtr.Store(growD)
	base := startDaemon(t, reg, obs.Default(), registry.GatewayOptions{
		DefaultTenant: "default",
		Growth:        func() any { return growD.Status() },
	})

	texts := []string{
		"subscribe to my channel for free prizes",
		"click this link to win an iphone",
		"what a lovely performance",
		"this song never gets old",
		"check out my profile for cheap followers",
		"the harmonies in the bridge are beautiful",
	}
	body, _ := json.Marshal(map[string]any{"texts": texts})
	resp, err := http.Post(base+"/v1/label", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label status %d", resp.StatusCode)
	}

	getStatus := func() growth.Status {
		t.Helper()
		resp, err := http.Get(base + "/v1/growth")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("growth status %d", resp.StatusCode)
		}
		var st growth.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := getStatus()
	if st.Tenant != "default" || st.Captured != len(texts) {
		t.Fatalf("pre-cycle status %+v, want %d captured for tenant default", st, len(texts))
	}

	rec, err := growD.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.CorpusLen != len(texts) {
		t.Fatalf("cycle record %+v", rec)
	}
	st = getStatus()
	if st.Stats.Cycles != 1 || st.LastCycle == nil || st.LastCycle.Outcome != rec.Outcome {
		t.Fatalf("post-cycle status %+v", st)
	}
	if rec.Outcome == growth.OutcomePromoted && st.GrowthCycle != 1 {
		t.Fatalf("promoted cycle did not advance the lineage: %+v", st)
	}

	// The grown tenant still serves after promotion/rollback.
	resp, err = http.Post(base+"/v1/label", "application/json",
		strings.NewReader(`{"text": "one more comment"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cycle label status %d", resp.StatusCode)
	}
}

// tracedRun is what one traced daemon run left behind: the echoed
// X-Request-Id of every request, in order, the trace sampler's counters
// as /v1/stats reported them, the batch count /metrics reported, and the
// spans the daemon flushed to -trace-out on shutdown.
type tracedRun struct {
	requestIDs []string
	labelIDs   map[string]bool
	sampler    obs.SamplerStats
	batches    int
	spans      []obs.SpanData
}

// runTraced runs the daemon through run() with -trace-out and the given
// -trace-sample/-trace-slow, waits for it to serve, sends sequential
// label requests, reads /metrics and then /v1/stats, and shuts it down.
// The sampler counters cover every request sent before /v1/stats.
func runTraced(t *testing.T, bundlePath string, sample float64, slow time.Duration) tracedRun {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	cfg := config{
		bundlePath: bundlePath, defaultTenant: "default", addr: addr,
		logLevel: "warn", replicas: 1,
		traceOut: tracePath, traceSample: sample, traceSlow: slow,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var tr tracedRun
	base := "http://" + addr
	call := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
		tr.requestIDs = append(tr.requestIDs, resp.Header.Get("X-Request-Id"))
		return data
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			tr.requestIDs = append(tr.requestIDs, resp.Header.Get("X-Request-Id"))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started serving")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr.labelIDs = make(map[string]bool)
	for _, body := range []string{
		`{"text": "subscribe to my channel"}`,
		`{"texts": ["great song", "check out my free cash"], "explain": true}`,
		`{"text": "what a classic tune"}`,
	} {
		call(http.MethodPost, "/v1/label", body)
		tr.labelIDs[tr.requestIDs[len(tr.requestIDs)-1]] = true
	}
	for _, line := range strings.Split(string(call(http.MethodGet, "/metrics", "")), "\n") {
		if strings.HasPrefix(line, "serve_batches_total{") {
			f := strings.Fields(line)
			n, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			tr.batches += n
		}
	}
	if tr.batches == 0 {
		t.Fatal("/metrics reports no serve batches after label requests")
	}
	var stats struct {
		Sampler *obs.SamplerStats `json:"trace_sampler"`
	}
	if err := json.Unmarshal(call(http.MethodGet, "/v1/stats", ""), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sampler == nil {
		t.Fatal("/v1/stats has no trace_sampler section")
	}
	tr.sampler = *stats.Sampler

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("graceful shutdown timed out")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var sd obs.SpanData
		if err := json.Unmarshal([]byte(line), &sd); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		tr.spans = append(tr.spans, sd)
	}
	return tr
}

// gatewaySpans indexes the written gateway.request spans by request_id.
func (tr tracedRun) gatewaySpans(t *testing.T) map[string]obs.SpanData {
	t.Helper()
	out := make(map[string]obs.SpanData)
	for _, sd := range tr.spans {
		if sd.Name != "gateway.request" {
			continue
		}
		rid, _ := sd.Attrs["request_id"].(string)
		if _, dup := out[rid]; dup || rid == "" {
			t.Fatalf("gateway.request span with missing or repeated request_id %q", rid)
		}
		out[rid] = sd
	}
	return out
}

// TestDaemonTraceFlags runs the daemon with -trace-out under the three
// sampling regimes of -trace-sample/-trace-slow and checks what the
// trace file and the /v1/stats sampler counters say.
func TestDaemonTraceFlags(t *testing.T) {
	path := trainBundle(t)

	t.Run("sample-all", func(t *testing.T) {
		tr := runTraced(t, path, 1, 250*time.Millisecond)
		gw := tr.gatewaySpans(t)
		if len(gw) != len(tr.requestIDs) {
			t.Fatalf("%d gateway.request spans for %d requests", len(gw), len(tr.requestIDs))
		}
		for _, rid := range tr.requestIDs {
			if _, ok := gw[rid]; !ok {
				t.Fatalf("no gateway.request span carries echoed X-Request-Id %q", rid)
			}
		}
		for rid := range tr.labelIDs {
			parent := gw[rid]
			nested := false
			for _, sd := range tr.spans {
				if sd.Name == "serve.label" && sd.Parent == parent.Span && sd.Trace == parent.Trace {
					nested = true
				}
			}
			if !nested {
				t.Errorf("label request %s has no serve.label span nested under its gateway.request", rid)
			}
		}
		if want := uint64(len(tr.requestIDs) - 1 + tr.batches); tr.sampler.KeptTraces != want || tr.sampler.DroppedTraces != 0 {
			t.Errorf("sampler %+v, want %d kept and none dropped", tr.sampler, want)
		}
	})

	t.Run("sample-none", func(t *testing.T) {
		tr := runTraced(t, path, 0, 0)
		for _, sd := range tr.spans {
			if status, _ := sd.Attrs["status"].(float64); sd.Name == "gateway.request" && status >= 200 && status < 300 {
				t.Fatalf("2xx request written despite -trace-sample 0 -trace-slow 0: %+v", sd)
			}
		}
		// Every root trace the daemon started before /v1/stats was
		// dropped: one gateway.request per request and one serve.batch
		// per coalesced batch.
		requests := len(tr.requestIDs) - 1
		if want := uint64(requests + tr.batches); tr.sampler.DroppedTraces != want || tr.sampler.KeptTraces != 0 {
			t.Errorf("sampler %+v, want %d dropped (%d requests + %d batches) and none kept",
				tr.sampler, want, requests, tr.batches)
		}
	})

	t.Run("slow-latch", func(t *testing.T) {
		tr := runTraced(t, path, 0, time.Nanosecond)
		gw := tr.gatewaySpans(t)
		for _, rid := range tr.requestIDs {
			if _, ok := gw[rid]; !ok {
				t.Fatalf("request %s not kept by the 1ns slow latch", rid)
			}
		}
		if tr.sampler.DroppedTraces != 0 {
			t.Errorf("slow latch dropped traces: %+v", tr.sampler)
		}
	})
}

func TestRunErrors(t *testing.T) {
	base := config{addr: ":0", logLevel: "warn", replicas: 1}
	if err := run(context.Background(), base); err == nil {
		t.Error("no bundle mapping accepted")
	}
	cfg := base
	cfg.bundlePath = filepath.Join(t.TempDir(), "nope.json")
	if err := run(context.Background(), cfg); err == nil {
		t.Error("nonexistent bundle accepted")
	}
	cfg = base
	cfg.bundlePath = trainBundle(t)
	cfg.logLevel = "not-a-level"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("bad log level accepted")
	}
	cfg = base
	cfg.bundlePath = trainBundle(t)
	cfg.replicas = 2
	cfg.replicaIndex = 2
	if err := run(context.Background(), cfg); err == nil {
		t.Error("out-of-range replica index accepted")
	}
	cfg = base
	cfg.tenants = tenantFlags{"acme"} // no '='; flag.Var would reject, run sees it raw
	if err := run(context.Background(), cfg); err == nil {
		t.Error("unparseable tenant mapping accepted")
	}
	cfg = base
	cfg.bundlePath = trainBundle(t)
	cfg.growInterval = time.Minute // no -grow-state-dir
	if err := run(context.Background(), cfg); err == nil {
		t.Error("growth without a state dir accepted")
	}
	cfg.growStateDir = t.TempDir()
	cfg.growTenant = "ghost" // no bundle mapping
	if err := run(context.Background(), cfg); err == nil {
		t.Error("growth tenant without a bundle mapping accepted")
	}
}

func TestTenantFlag(t *testing.T) {
	var tf tenantFlags
	if err := tf.Set("acme=/tmp/a.json"); err != nil {
		t.Fatal(err)
	}
	if err := tf.Set("no-equals"); err == nil {
		t.Error("mapping without '=' accepted")
	}
	if got := tf.String(); got != "acme=/tmp/a.json" {
		t.Errorf("String() = %q", got)
	}
}
