package registry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// FuzzGatewayLabel posts arbitrary bodies to /v1/label, the serving
// trust boundary. Whatever arrives, the gateway must answer below 500
// with JSON that is either the predictions, exactly one per input text,
// or the uniform error envelope. The body cap matches the golden-error
// gateway's, and the small MaxBatch and QueueDepth let short bodies
// reach request splitting and oversized admission.
func FuzzGatewayLabel(f *testing.F) {
	_, _, path := trained(f)
	r, mreg := newRegistry(f, registry.Options{Serve: serve.Options{MaxBatch: 4, QueueDepth: 8}})
	if err := r.Register("t", path); err != nil {
		f.Fatal(err)
	}
	h := registry.NewGateway(r, obs.New(nil, mreg, nil),
		registry.GatewayOptions{DefaultTenant: "t", MaxLabelBytes: 64}).Handler()

	for _, c := range goldenCases {
		if c.method == http.MethodPost && strings.HasSuffix(c.path, "/label") {
			f.Add([]byte(c.body))
		}
	}
	f.Add([]byte(`{"text": "check out my channel"}`))
	f.Add([]byte(`{"texts": ["a", "", "c", "d", "e", "f", "g", "h", "i"]}`))
	f.Add([]byte(`{"texts": ["subscribe"], "explain": true}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/label", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var env struct {
				Error *struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil ||
				env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d: body is not the error envelope (%v): %s", rec.Code, err, rec.Body)
			}
			return
		}
		var out struct {
			Prediction  *serve.Prediction  `json:"prediction"`
			Predictions []serve.Prediction `json:"predictions"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body)
		}
		// The gateway accepted the body, so it decodes as a label request.
		var req struct {
			Text    string   `json:"text"`
			Texts   []string `json:"texts"`
			Explain bool     `json:"explain"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		want := len(req.Texts)
		if req.Text != "" {
			want = 1
		}
		got := len(out.Predictions)
		if out.Prediction != nil {
			got++
		}
		if got != want {
			t.Fatalf("body %q: %d predictions for %d texts", body, got, want)
		}
	})
}

// FuzzGatewayPromote posts arbitrary bodies to /v1/bundles/{tenant},
// the bundle-upload trust boundary. Whatever arrives, the gateway must
// answer below 500, and the served bundle (the tenant's generation)
// moves on exactly when the answer is 200. The tenant has labeled
// traffic first, so a decodable valid candidate also runs the shadow
// gate's replay.
func FuzzGatewayPromote(f *testing.F) {
	// A small bundle keeps the valid seed short enough for the fuzzer
	// to mutate and minimize quickly.
	d, err := dataset.Load("youtube", 11, 0.2)
	if err != nil {
		f.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Iterations = 4
	cfg.Seed = 11
	cfg.FeatureDim = 32
	cfg.EndModel.Epochs = 1
	res, err := core.Run(d, cfg)
	if err != nil {
		f.Fatal(err)
	}
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(b)
	if err != nil {
		f.Fatal(err)
	}
	r, mreg := newRegistry(f, registry.Options{})
	if err := r.RegisterBundle("t", b); err != nil {
		f.Fatal(err)
	}
	texts := make([]string, 0, 8)
	for _, e := range d.Valid[:8] {
		texts = append(texts, e.Text)
	}
	if _, err := r.Label(context.Background(), "t", texts, false); err != nil {
		f.Fatal(err)
	}
	h := registry.NewGateway(r, obs.New(nil, mreg, nil), registry.GatewayOptions{}).Handler()
	generation := func() int {
		for _, info := range r.List() {
			if info.Tenant == "t" {
				return info.Generation
			}
		}
		f.Fatal("tenant t not listed")
		return 0
	}

	for _, c := range goldenCases {
		if c.method == http.MethodPost && c.path == "/v1/bundles/t" {
			f.Add([]byte(c.body))
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		before := generation()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bundles/t", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		after := generation()
		if ok := rec.Code == http.StatusOK; ok != (after != before) {
			t.Fatalf("status %d but generation %d -> %d: %s", rec.Code, before, after, rec.Body)
		}
	})
}
