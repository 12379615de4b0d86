package growth

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

// -update regenerates testdata/growth.golden from the current
// rendering: go test ./internal/growth/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current /v1/growth payloads")

// TestGrowthGolden pins the GET /v1/growth surface — the status payload
// after a promoted cycle and one the offline verification rejected
// before serving it (outcome rolled_back), the 404 envelope when
// no daemon is wired, and the 405 envelope — byte for byte. Everything in the payload is a
// deterministic function of the seeded fixture (timestamps are pinned,
// hashes derive from seeded training), so the golden file is stable.
func TestGrowthGolden(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the parent's save stamp: the fixture's lineage hashes must not
	// depend on when the test binary trained it.
	parent.Provenance.CreatedUnix = 1_754_200_000
	reg := newTestRegistry(t, registry.Options{}, path)
	stateDir := t.TempDir()
	dmn, err := New(Config{
		Tenant: "t", Registry: reg, Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: stateDir,
		Budget: 4, MinCorpus: 8,
		now: func() int64 { return 1_754_200_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two captured cycles: the second runs on a daemon that has already
	// built its per-daemon state, so its candidate hash pins that path.
	texts := corpusTexts(d, 48)
	for _, captured := range [][]string{texts[:24], texts[24:]} {
		dmn.Capture("t", captured)
		rec, err := dmn.RunCycle(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.CandidateHash == "" {
			t.Fatalf("cycle built no candidate: %+v", rec)
		}
		// The journaled hash, taken from the bytes the cycle saved, is
		// Fingerprint of the archived candidate.
		cand, err := bundle.Load(filepath.Join(stateDir, fmt.Sprintf("candidate-%d.json", rec.Cycle)))
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := bundle.Fingerprint(cand); err != nil || fp != rec.CandidateHash {
			t.Errorf("cycle %d: archived candidate fingerprints %s (%v), journal says %s", rec.Cycle, fp, err, rec.CandidateHash)
		}
	}
	dmn.Capture("t", corpusTexts(d, 3))

	o := obs.New(nil, obs.NewRegistry(), nil)
	withGrowth := registry.NewGateway(reg, o, registry.GatewayOptions{
		DefaultTenant: "t",
		Growth:        func() any { return dmn.Status() },
	})
	without := registry.NewGateway(reg, o, registry.GatewayOptions{DefaultTenant: "t"})
	tsGrowth := httptest.NewServer(withGrowth.Handler())
	t.Cleanup(tsGrowth.Close)
	tsPlain := httptest.NewServer(without.Handler())
	t.Cleanup(tsPlain.Close)

	cases := []struct {
		name   string
		base   string
		method string
	}{
		{name: "status", base: tsGrowth.URL, method: "GET"},
		{name: "disabled", base: tsPlain.URL, method: "GET"},
		{name: "method-not-allowed", base: tsGrowth.URL, method: "POST"},
	}

	var buf bytes.Buffer
	for _, c := range cases {
		req, err := http.NewRequest(c.method, c.base+"/v1/growth", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s\n%s /v1/growth\nstatus: %d\n", c.name, c.method, resp.StatusCode)
		for _, h := range []string{"Allow", "Retry-After", "Content-Type"} {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&buf, "%s: %s\n", h, v)
			}
		}
		buf.Write(body)
		buf.WriteString("\n")

		// Independent of the golden bytes: the payload must parse as the
		// documented shape.
		switch c.name {
		case "status":
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("status body is not a growth.Status: %v (%s)", err, body)
			} else if st.Tenant != "t" || st.Stats.Cycles != 2 || st.LastCycle == nil || st.Captured != 3 {
				t.Errorf("status payload off: %+v", st)
			}
		default:
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
				t.Errorf("%s: body is not the error envelope: %v (%s)", c.name, err, body)
			}
		}
	}

	golden := filepath.Join("testdata", "growth.golden")
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
		t.Errorf("/v1/growth rendering drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}
