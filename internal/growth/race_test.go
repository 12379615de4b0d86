package growth

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// TestGrowthVerifyRejectUnderLoad races a cycle whose candidate
// regresses against live /v1/label traffic and a concurrent manual
// promoter. Invariants: the offline verification rejects the candidate
// before it is ever served, so growth adds no registry swap and no
// rollback and the operator's last promote stays served; every served
// request gets exactly one successful answer; manual promotions observe
// strictly increasing generations; and the growth lineage never
// advances. Run under -race.
func TestGrowthVerifyRejectUnderLoad(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// ShadowSample -1 disables the registry's own gate: were the
	// regressing candidate ever promoted, nothing would stop the swap.
	o := obs.New(nil, obs.NewRegistry(), nil)
	reg := registry.New(o, registry.Options{ShadowSample: -1})
	t.Cleanup(reg.Close)
	if err := reg.Register("t", path); err != nil {
		t.Fatal(err)
	}
	dmn, err := New(Config{
		Tenant: "t", Registry: reg, Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: t.TempDir(),
		Budget: 4, MinCorpus: 8,
		now: func() int64 { return 1_754_300_000 },
		// Sabotage the candidate after evaluation but before pinning:
		// negated weights invert every prediction, so the quality gate
		// (which saw the honest metric) passes but the offline
		// verification against the parent must fail.
		mutateCandidate: func(b *bundle.Bundle) {
			for j := range b.EndModel.W {
				b.EndModel.W[j] = -b.EndModel.W[j]
			}
			for j := range b.EndModel.B {
				b.EndModel.B[j] = -b.EndModel.B[j]
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rootHash := dmn.Status().Parent

	gw := registry.NewGateway(reg, obs.New(nil, obs.NewRegistry(), nil), registry.GatewayOptions{
		DefaultTenant: "t",
		Growth:        func() any { return dmn.Status() },
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	texts := corpusTexts(d, 24)
	dmn.Capture("t", texts)

	manualBundle, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 40
	var (
		wg      sync.WaitGroup
		served  atomic.Int64
		failed  atomic.Int64
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		failed.Add(1)
		errOnce.Do(func() { firstEr = err })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, _ := json.Marshal(map[string]any{"text": texts[(w*perWorker+i)%len(texts)]})
				resp, err := http.Post(ts.URL+"/v1/label", "application/json", bytes.NewReader(body))
				if err != nil {
					fail(err)
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("status %d: %s", resp.StatusCode, data))
					continue
				}
				var out struct {
					Prediction *serve.Prediction `json:"prediction"`
				}
				if err := json.Unmarshal(data, &out); err != nil || out.Prediction == nil {
					fail(fmt.Errorf("label response without prediction: %s", data))
					continue
				}
				served.Add(1)
			}
		}(w)
	}

	// Manual promoter: re-promotes the boot bundle over HTTP while the
	// growth loop verifies and rejects its candidate.
	promoGens := make([]int, 0, 6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			resp, err := http.Post(ts.URL+"/v1/bundles/t", "application/json", bytes.NewReader(manualBundle))
			if err != nil {
				fail(err)
				continue
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				fail(fmt.Errorf("manual promote status %d: %s", resp.StatusCode, data))
				continue
			}
			var rep registry.PromoteReport
			if err := json.Unmarshal(data, &rep); err != nil {
				fail(err)
				continue
			}
			promoGens = append(promoGens, rep.Generation)
		}
	}()

	rec, err := dmn.RunCycle(context.Background())
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Outcome != OutcomeRolledBack {
		t.Fatalf("cycle record %+v, want outcome %s", rec, OutcomeRolledBack)
	}
	if rec.VerifyAgreement >= 0.9 {
		t.Fatalf("sabotaged candidate verified at %.3f agreement", rec.VerifyAgreement)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d of %d label/promote requests failed during the cycle; first: %v",
			failed.Load(), workers*perWorker, firstEr)
	}
	if got := served.Load(); got != workers*perWorker {
		t.Fatalf("served %d responses, want %d", got, workers*perWorker)
	}
	for i := 1; i < len(promoGens); i++ {
		if promoGens[i] <= promoGens[i-1] {
			t.Fatalf("manual promotions saw non-monotonic generations: %v", promoGens)
		}
	}

	// Growth added no swap: every generation is a manual promote, none
	// was rolled back, and the last manual promote is what is served.
	if len(promoGens) != 6 {
		t.Fatalf("%d manual promotes answered, want 6", len(promoGens))
	}
	if rec.Generation != 0 {
		t.Fatalf("rejected cycle recorded generation %d", rec.Generation)
	}
	gen := -1
	for _, info := range reg.List() {
		if info.Tenant == "t" {
			gen = info.Generation
		}
	}
	if gen != len(promoGens) || gen != promoGens[len(promoGens)-1] {
		t.Fatalf("registry at generation %d after %d manual promotes (last saw %d)",
			gen, len(promoGens), promoGens[len(promoGens)-1])
	}
	if n := o.Metrics.CounterValue("serve_bundle_rollbacks_total"); n != 0 {
		t.Fatalf("serve_bundle_rollbacks_total = %v, want 0", n)
	}

	// The rejection must not advance the growth lineage.
	st := dmn.Status()
	if st.Parent != rootHash || st.GrowthCycle != 0 {
		t.Fatalf("lineage advanced through a rejected cycle: parent %s cycle %d", st.Parent, st.GrowthCycle)
	}
	if st.Stats.RolledBack != 1 || st.Stats.Promoted != 0 {
		t.Fatalf("stats %+v", st.Stats)
	}
}
