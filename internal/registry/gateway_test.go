package registry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// -update regenerates testdata/errors.golden from the current envelope
// rendering: go test ./internal/registry/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current error envelopes")

func newGatewayServer(t *testing.T, gwOpts registry.GatewayOptions) (*httptest.Server, *registry.Registry) {
	t.Helper()
	_, _, path := trained(t)
	r, mreg := newRegistry(t, registry.Options{})
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	gw := registry.NewGateway(r, obs.New(nil, mreg, nil), gwOpts)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return ts, r
}

// TestGatewayDifferentialIdentity extends the serving bit-identity
// contract through the redesigned API: every validation text labeled
// over HTTP via the tenant-scoped route (and the bare alias) carries
// exactly the offline Evaluate-path posterior, bit for bit after the
// JSON round trip.
func TestGatewayDifferentialIdentity(t *testing.T) {
	b, d, _ := trained(t)
	ts, _ := newGatewayServer(t, registry.GatewayOptions{DefaultTenant: "t"})

	var texts []string
	for _, e := range d.Valid {
		texts = append(texts, e.Text)
	}
	X := b.Featurizer.TransformAll(dataset.FeatureCorpus(d.Valid))
	probas := b.EndModel.PredictProbaAll(X)
	labels := b.EndModel.Predict(X)

	body, _ := json.Marshal(map[string]any{"texts": texts})
	resp, err := http.Post(ts.URL+"/v1/tenants/t/label", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Tenant      string             `json:"tenant"`
		Predictions []serve.Prediction `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "t" || len(out.Predictions) != len(texts) {
		t.Fatalf("tenant %q, %d predictions for %d texts", out.Tenant, len(out.Predictions), len(texts))
	}
	for i, p := range out.Predictions {
		if p.Label != labels[i] {
			t.Fatalf("text %d: served label %d, offline %d", i, p.Label, labels[i])
		}
		for c := range probas[i] {
			if math.Float64bits(p.Proba[c]) != math.Float64bits(probas[i][c]) {
				t.Fatalf("text %d class %d: served %v, offline %v (bits differ)", i, c, p.Proba[c], probas[i][c])
			}
		}
	}

	// Single-text requests through the bare alias route to the same
	// tenant and stay bit-identical too.
	for i := 0; i < 10 && i < len(texts); i++ {
		body, _ := json.Marshal(map[string]any{"text": texts[i]})
		resp, err := http.Post(ts.URL+"/v1/label", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var single struct {
			Tenant     string            `json:"tenant"`
			Prediction *serve.Prediction `json:"prediction"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if single.Prediction == nil || single.Prediction.Label != labels[i] {
			t.Fatalf("text %d: single prediction %+v, offline label %d", i, single.Prediction, labels[i])
		}
		for c := range probas[i] {
			if math.Float64bits(single.Prediction.Proba[c]) != math.Float64bits(probas[i][c]) {
				t.Fatalf("text %d class %d: single served %v, offline %v", i, c, single.Prediction.Proba[c], probas[i][c])
			}
		}
	}
}

// goldenCase is one request whose rendered error response is pinned in
// testdata/errors.golden.
type goldenCase struct {
	name    string
	sharded bool // run against the 3-replica gateway instead
	method  string
	path    string
	body    string
}

// goldenCases are the requests TestGatewayGoldenErrors pins, one per
// failure mode; the label bodies also seed FuzzGatewayLabel.
var goldenCases = []goldenCase{
	{name: "bad-json", method: "POST", path: "/v1/label", body: `{not json`},
	{name: "unknown-field", method: "POST", path: "/v1/label", body: `{"txt": "hi"}`},
	{name: "neither-text-nor-texts", method: "POST", path: "/v1/label", body: `{"explain": true}`},
	{name: "both-text-and-texts", method: "POST", path: "/v1/label", body: `{"text": "a", "texts": ["b"]}`},
	{name: "body-too-large", method: "POST", path: "/v1/label",
		body: `{"text": "` + strings.Repeat("spam and eggs ", 8) + `"}`},
	{name: "unknown-tenant", method: "POST", path: "/v1/tenants/ghost/label", body: `{"text": "hi"}`},
	{name: "method-not-allowed", method: "GET", path: "/v1/label"},
	{name: "unknown-route", method: "GET", path: "/v1/nope"},
	{name: "rollback-no-previous", method: "POST", path: "/v1/bundles/t/rollback"},
	{name: "bad-bundle", method: "POST", path: "/v1/bundles/t", body: `{"format": "not-a-bundle", "version": 1}`},
	{name: "wrong-shard", sharded: true, method: "POST", path: "/v1/tenants/globex/label", body: `{"text": "hi"}`},
}

// TestGatewayGoldenErrors pins the uniform error envelope — status,
// headers, and body — for every failure mode of the /v1 surface.
func TestGatewayGoldenErrors(t *testing.T) {
	ts, _ := newGatewayServer(t, registry.GatewayOptions{MaxLabelBytes: 64})
	// A second surface with sharding on: replica 0 of 3, so tenant
	// "globex" (owned by replica 1) is misdirected here.
	shardTS, _ := newGatewayServer(t, registry.GatewayOptions{
		Ring:      registry.NewRing(3, 0),
		SelfShard: 0,
		Peers:     []string{"127.0.0.1:7000", "127.0.0.1:7001", "127.0.0.1:7002"},
	})

	var buf bytes.Buffer
	for _, c := range goldenCases {
		base := ts.URL
		if c.sharded {
			base = shardTS.URL
		}
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s\n%s %s\nstatus: %d\n", c.name, c.method, c.path, resp.StatusCode)
		for _, h := range []string{"Allow", "Retry-After", "Content-Type"} {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&buf, "%s: %s\n", h, v)
			}
		}
		buf.Write(body)
		buf.WriteString("\n")

		// Independent of the golden file: every error body must parse as
		// the uniform envelope with a non-empty code and message.
		var env struct {
			Error struct {
				Code      string `json:"code"`
				Message   string `json:"message"`
				ShardHint *struct {
					Shard int    `json:"shard"`
					Addr  string `json:"addr"`
				} `json:"shard_hint"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body is not the error envelope: %v (%s)", c.name, err, body)
			continue
		}
		if env.Error.Code == "" || env.Error.Message == "" {
			t.Errorf("%s: envelope missing code or message: %s", c.name, body)
		}
		if c.name == "wrong-shard" {
			if env.Error.ShardHint == nil || env.Error.ShardHint.Shard != 1 || env.Error.ShardHint.Addr != "127.0.0.1:7001" {
				t.Errorf("wrong-shard: bad hint in %s", body)
			}
		} else if env.Error.ShardHint != nil {
			t.Errorf("%s: unexpected shard hint", c.name)
		}
	}

	golden := filepath.Join("testdata", "errors.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("error envelopes drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}

// TestGatewayShardRouting: the sharded gateway answers its own tenants
// and misdirects the rest; an unsharded gateway answers everything.
func TestGatewayShardRouting(t *testing.T) {
	_, d, _ := trained(t)
	ts, _ := newGatewayServer(t, registry.GatewayOptions{
		Ring:      registry.NewRing(3, 0),
		SelfShard: 0,
	})
	body, _ := json.Marshal(map[string]any{"text": d.Valid[0].Text})

	// "t" hashes to replica 0: served here.
	resp, err := http.Post(ts.URL+"/v1/tenants/t/label", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("own-shard tenant: status %d", resp.StatusCode)
	}

	// "globex" hashes to replica 1: misdirected, even for promote/rollback.
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/tenants/globex/label"},
		{"POST", "/v1/bundles/globex"},
		{"POST", "/v1/bundles/globex/rollback"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("%s %s: status %d, want 421", c.method, c.path, resp.StatusCode)
		}
	}

	// /healthz reports the shard configuration.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Shard    int `json:"shard"`
		Replicas int `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Shard != 0 || health.Replicas != 3 {
		t.Errorf("health shard/replicas = %d/%d, want 0/3", health.Shard, health.Replicas)
	}
}

// TestGatewayMetricsEndpoint: /metrics speaks Prometheus text and
// carries the serve_* family after traffic.
func TestGatewayMetricsEndpoint(t *testing.T) {
	_, d, _ := trained(t)
	ts, _ := newGatewayServer(t, registry.GatewayOptions{DefaultTenant: "t"})
	body, _ := json.Marshal(map[string]any{"text": d.Valid[0].Text})
	resp, err := http.Post(ts.URL+"/v1/label", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"serve_requests_total", "serve_tenants", "serve_bundle_loads_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestGatewayPromoteOverHTTP: upload-promote an artifact through the
// API, watch the generation tick, and verify labeling still answers.
func TestGatewayPromoteOverHTTP(t *testing.T) {
	_, d, path := trained(t)
	ts, _ := newGatewayServer(t, registry.GatewayOptions{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/bundles/t", "application/json", bytes.NewReader(data))
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

	resp, err = http.Get(ts.URL + "/v1/bundles")
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
	infos := listing.Bundles
	if len(infos) != 1 || infos[0].Generation != 1 || infos[0].Source != "api-promote" {
		t.Fatalf("listing after promote: %+v", infos)
	}

	body, _ := json.Marshal(map[string]any{"text": d.Valid[0].Text})
	resp, err = http.Post(ts.URL+"/v1/tenants/t/label", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label after promote: status %d", resp.StatusCode)
	}
}

// TestGatewayRollbackTargetGone: when the server's own file-backed
// rollback target no longer loads, rollback is a server fault (500
// internal), not a bad request, and the promoted bundle keeps serving.
func TestGatewayRollbackTargetGone(t *testing.T) {
	_, d, path := trained(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(t.TempDir(), "a.json")
	if err := os.WriteFile(own, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, mreg := newRegistry(t, registry.Options{MaxResident: 1})
	if err := r.Register("a", own); err != nil {
		t.Fatal(err)
	}
	// Registering b evicts a, so a's rollback target is its file.
	if err := r.Register("b", path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote("a", freshCopy(t), true); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(own); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(registry.NewGateway(r, obs.New(nil, mreg, nil), registry.GatewayOptions{}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/bundles/a/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Fatalf("rollback to a deleted file: status %d, code %q, decode err %v; want 500 internal",
			resp.StatusCode, env.Error.Code, err)
	}
	if infos := r.List(); infos[0].Generation != 1 || infos[0].Source != "api-promote" {
		t.Fatalf("failed rollback changed the tenant: %+v", infos[0])
	}
	if _, err := r.Label(context.Background(), "a", []string{d.Valid[0].Text}, false); err != nil {
		t.Fatalf("label after failed rollback: %v", err)
	}
}
