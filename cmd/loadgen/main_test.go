package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
)

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

// TestLoadgenEndToEnd drives a short in-process run — loopback daemon,
// mixed single/batch traffic over two tenants — and checks the report
// plus the render path `make bench-serve` depends on.
func TestLoadgenEndToEnd(t *testing.T) {
	cfg := loadConfig{
		bundlePath:  trainBundle(t),
		tenants:     2,
		duration:    500 * time.Millisecond,
		concurrency: 4,
		batchFrac:   0.5,
		batchSize:   4,
		explainFrac: 0.25,
		maxBatch:    16,
		seed:        1,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Texts < rep.Requests {
		t.Fatalf("requests=%d texts=%d", rep.Requests, rep.Texts)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("unexpected error statuses: %v", rep.Errors)
	}
	if rep.Latency.Count != rep.Single.Count+rep.Batch.Count {
		t.Fatalf("latency counts %d != %d single + %d batch",
			rep.Latency.Count, rep.Single.Count, rep.Batch.Count)
	}
	if rep.Single.Count == 0 || rep.Batch.Count == 0 {
		t.Fatalf("one traffic class never ran: single=%d batch=%d", rep.Single.Count, rep.Batch.Count)
	}
	for _, q := range []quantiles{rep.Latency, rep.Single, rep.Batch} {
		if q.P50 <= 0 || q.P50 > q.P99 || q.P99 > q.Max {
			t.Fatalf("inconsistent quantiles %+v", q)
		}
	}
	if rep.RequestsPS <= 0 || rep.TextsPS < rep.RequestsPS {
		t.Fatalf("throughput rps=%v tps=%v", rep.RequestsPS, rep.TextsPS)
	}

	// The report must render — that is the "BENCH_serve.json renders"
	// gate in make bench-serve.
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := renderReport(&out, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"requests", "p50", "p99", "single", "batch"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunLoadConfigErrors(t *testing.T) {
	if _, err := runLoad(loadConfig{}); err == nil {
		t.Error("neither -addr nor -bundle accepted")
	}
	if _, err := runLoad(loadConfig{addr: "http://x", bundlePath: "y", tenants: 1, concurrency: 1, batchSize: 1}); err == nil {
		t.Error("both -addr and -bundle accepted")
	}
	if _, err := runLoad(loadConfig{addr: "http://x", tenants: 0, concurrency: 1, batchSize: 1}); err == nil {
		t.Error("zero tenants accepted")
	}
	if _, err := runLoad(loadConfig{bundlePath: filepath.Join(t.TempDir(), "missing.json"),
		tenants: 1, concurrency: 1, batchSize: 1, duration: time.Millisecond}); err == nil {
		t.Error("missing bundle accepted")
	}
}

func TestRenderReportErrors(t *testing.T) {
	var out bytes.Buffer
	if err := renderReport(&out, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing report accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := renderReport(&out, empty); err == nil {
		t.Error("empty report accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := renderReport(&out, bad); err == nil {
		t.Error("unparseable report accepted")
	}
}

func TestSummarize(t *testing.T) {
	if q := summarize(nil); q.Count != 0 {
		t.Errorf("empty summary %+v", q)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	q := summarize(ms)
	if q.Count != 100 || q.P50 != 50 || q.P90 != 90 || q.P99 != 99 || q.Max != 100 {
		t.Errorf("summary of 1..100: %+v", q)
	}
}

func TestSynthTextDeterminism(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		ta, tb := synthText(a), synthText(b)
		if ta != tb {
			t.Fatalf("same seed diverged: %q vs %q", ta, tb)
		}
		if ta == "" {
			t.Fatal("empty synthetic text")
		}
	}
}
