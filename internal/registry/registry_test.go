package registry_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

var (
	trainOnce sync.Once
	trainedB  *bundle.Bundle
	trainedD  *dataset.Dataset
	savedPath string
	trainErr  error
)

// trained runs the pipeline once per test binary, saves the bundle to a
// temp file, and hands every test the same artifact. Tests that need a
// private bundle object load a fresh copy from the saved path.
func trained(t testing.TB) (*bundle.Bundle, *dataset.Dataset, string) {
	t.Helper()
	trainOnce.Do(func() {
		d, err := dataset.Load("youtube", 11, 0.4)
		if err != nil {
			trainErr = err
			return
		}
		cfg := core.DefaultConfig(core.VariantBase)
		cfg.Iterations = 15
		cfg.Seed = 11
		cfg.FeatureDim = 2048
		cfg.EndModel.Epochs = 3
		res, err := core.Run(d, cfg)
		if err != nil {
			trainErr = err
			return
		}
		b, err := bundle.New(d, cfg, res)
		if err != nil {
			trainErr = err
			return
		}
		dir, err := os.MkdirTemp("", "registry-test-*")
		if err != nil {
			trainErr = err
			return
		}
		path := filepath.Join(dir, "model.json")
		if err := bundle.Save(path, b); err != nil {
			trainErr = err
			return
		}
		trainedB, trainedD, savedPath = b, d, path
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainedB, trainedD, savedPath
}

// freshCopy loads a private bundle object from the saved artifact.
func freshCopy(t *testing.T) *bundle.Bundle {
	t.Helper()
	_, _, path := trained(t)
	b, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newRegistry(t testing.TB, opts registry.Options) (*registry.Registry, *obs.Registry) {
	t.Helper()
	if opts.Serve.Workers == 0 {
		opts.Serve.Workers = 1
	}
	mreg := obs.NewRegistry()
	r := registry.New(obs.New(nil, mreg, nil), opts)
	t.Cleanup(r.Close)
	return r, mreg
}

func gauge(mreg *obs.Registry, name string) float64 {
	v, _ := mreg.Snapshot()[name].(float64)
	return v
}

// TestRegistryLRUEviction: with MaxResident 1, registering and using a
// second tenant evicts the first's server, yet both tenants keep
// answering (the bundle is remapped from its source on demand) and the
// listing reports exactly one resident at a time.
func TestRegistryLRUEviction(t *testing.T) {
	_, d, path := trained(t)
	r, mreg := newRegistry(t, registry.Options{MaxResident: 1})
	if err := r.Register("a", path); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", path); err != nil {
		t.Fatal(err)
	}
	if got := gauge(mreg, "serve_bundles_resident"); got != 1 {
		t.Fatalf("resident after two registrations = %v, want 1", got)
	}
	if got := mreg.CounterValue("serve_bundle_evictions_total"); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}

	text := d.Valid[0].Text
	for round := 0; round < 2; round++ {
		for _, tenant := range []string{"a", "b"} {
			preds, err := r.Label(context.Background(), tenant, []string{text}, false)
			if err != nil {
				t.Fatalf("round %d tenant %s: %v", round, tenant, err)
			}
			if len(preds) != 1 || len(preds[0].Proba) == 0 {
				t.Fatalf("round %d tenant %s: bad prediction %+v", round, tenant, preds)
			}
		}
	}
	if got := gauge(mreg, "serve_bundles_resident"); got != 1 {
		t.Fatalf("resident after ping-pong = %v, want 1", got)
	}
	// 2 registrations + at least 3 remaps (a,b,a,b leaves the last hot).
	if got := mreg.CounterValue("serve_bundle_loads_total"); got < 5 {
		t.Errorf("loads = %v, want >= 5", got)
	}
	resident := 0
	for _, info := range r.List() {
		if info.Resident {
			resident++
		}
	}
	if resident != 1 {
		t.Errorf("listing reports %d resident tenants, want 1", resident)
	}

	if _, err := r.Label(context.Background(), "nope", []string{text}, false); !errors.Is(err, registry.ErrUnknownTenant) {
		t.Errorf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
}

// TestZeroDowntimeHotSwap is the availability contract of the tentpole:
// while clients hammer Label, a promote+rollback loop hot-swaps the
// tenant's bundle repeatedly and not one request may fail — in-flight
// requests drain on the old server while new ones route to the new.
func TestZeroDowntimeHotSwap(t *testing.T) {
	_, d, path := trained(t)
	r, mreg := newRegistry(t, registry.Options{})
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	// Seed the shadow sample so the gate actually runs on every promote
	// (same-artifact candidates agree 100%, so it passes).
	seed := []string{d.Valid[0].Text, d.Valid[1].Text, d.Valid[2].Text}
	if _, err := r.Label(context.Background(), "t", seed, false); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				text := d.Valid[(w*7+i)%len(d.Valid)].Text
				if _, err := r.Label(context.Background(), "t", []string{text}, false); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	const swaps = 4
	for i := 0; i < swaps; i++ {
		rep, err := r.Promote("t", freshCopy(t), false)
		if err != nil {
			t.Fatalf("promote %d: %v (report %+v)", i, err, rep)
		}
		if !rep.Gated || rep.Agreement != 1 {
			t.Fatalf("promote %d: gate did not run or disagreed: %+v", i, rep)
		}
		if _, err := r.Rollback("t"); err != nil {
			t.Fatalf("rollback %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("request failed during hot-swap: %v", err)
	}
	if got := mreg.CounterValue("serve_bundle_swaps_total"); got != swaps {
		t.Errorf("swaps = %v, want %d", got, swaps)
	}
	if got := mreg.CounterValue("serve_bundle_rollbacks_total"); got != swaps {
		t.Errorf("rollbacks = %v, want %d", got, swaps)
	}
	// The tenant still answers after the dust settles.
	if _, err := r.Label(context.Background(), "t", seed, false); err != nil {
		t.Fatal(err)
	}
}

// TestShadowGateRejects: a candidate with negated end-model weights
// predicts the opposite class on (nearly) every recent text, so the
// shadow gate must reject it — and ?force-style promotion must still be
// able to push it through.
func TestShadowGateRejects(t *testing.T) {
	_, d, path := trained(t)
	r, mreg := newRegistry(t, registry.Options{})
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 0, 32)
	for i := 0; i < 32 && i < len(d.Valid); i++ {
		texts = append(texts, d.Valid[i].Text)
	}
	if _, err := r.Label(context.Background(), "t", texts, false); err != nil {
		t.Fatal(err)
	}

	negated := freshCopy(t)
	for j := range negated.EndModel.W {
		negated.EndModel.W[j] = -negated.EndModel.W[j]
	}
	for k := range negated.EndModel.B {
		negated.EndModel.B[k] = -negated.EndModel.B[k]
	}
	rep, err := r.Promote("t", negated, false)
	if !errors.Is(err, registry.ErrShadowGate) {
		t.Fatalf("promote negated bundle: err = %v, want ErrShadowGate", err)
	}
	if !rep.Gated || rep.ShadowSample != len(texts) || rep.Agreement >= 0.9 {
		t.Fatalf("gate report %+v", rep)
	}
	if got := mreg.CounterValue("serve_shadow_rejects_total"); got != 1 {
		t.Errorf("shadow rejects = %v, want 1", got)
	}
	// The incumbent is untouched by a rejected promotion.
	if _, err := r.Label(context.Background(), "t", texts[:1], false); err != nil {
		t.Fatal(err)
	}
	if infos := r.List(); infos[0].Generation != 0 {
		t.Errorf("generation after rejected promote = %d, want 0", infos[0].Generation)
	}

	// Force pushes the same candidate through.
	rep, err = r.Promote("t", negated, true)
	if err != nil {
		t.Fatalf("forced promote: %v", err)
	}
	if rep.Gated || rep.Generation != 1 {
		t.Fatalf("forced promote report %+v", rep)
	}
	// And rollback restores the original behavior.
	if _, err := r.Rollback("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rollback("t"); err != nil {
		t.Fatal(err) // second rollback toggles back to the negated bundle
	}
	if _, err := r.Label(context.Background(), "t", texts[:1], false); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryClose: Close drains everything and further calls fail
// with ErrClosed; Close is idempotent.
func TestRegistryClose(t *testing.T) {
	_, d, path := trained(t)
	mreg := obs.NewRegistry()
	r := registry.New(obs.New(nil, mreg, nil), registry.Options{Serve: serve.Options{Workers: 1}})
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Label(context.Background(), "t", []string{d.Valid[0].Text}, false); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if _, err := r.Label(context.Background(), "t", []string{d.Valid[0].Text}, false); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("label after close: err = %v, want ErrClosed", err)
	}
	if err := r.Register("u", path); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("register after close: err = %v, want ErrClosed", err)
	}
}

// TestRegisterErrors pins the registration failure modes.
func TestRegisterErrors(t *testing.T) {
	_, _, path := trained(t)
	r, _ := newRegistry(t, registry.Options{})
	if err := r.Register("t", path); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("t", path); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if err := r.Register("", path); err == nil {
		t.Error("empty tenant accepted")
	}
	if err := r.Register("a/b", path); err == nil {
		t.Error("tenant with separator accepted")
	}
	if err := r.Register("u", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing bundle accepted")
	}
	if err := r.RegisterBundle("v", nil); err == nil {
		t.Error("nil bundle accepted")
	}
	if _, err := r.Rollback("t"); !errors.Is(err, registry.ErrNoPrevious) {
		t.Errorf("rollback without history: err = %v, want ErrNoPrevious", err)
	}
	if _, err := r.Rollback("ghost"); !errors.Is(err, registry.ErrUnknownTenant) {
		t.Errorf("rollback unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
}

// TestPromoteRegistersNewTenant: promoting to an unregistered tenant is
// a registration, and the uploaded bundle stays pinned across eviction.
func TestPromoteRegistersNewTenant(t *testing.T) {
	_, d, _ := trained(t)
	r, _ := newRegistry(t, registry.Options{MaxResident: 1})
	rep, err := r.Promote("fresh", freshCopy(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 0 || rep.Gated {
		t.Fatalf("report %+v", rep)
	}
	// Evict it by touching a second tenant, then label again: the
	// pinned upload must come back without any backing file.
	if err := r.RegisterBundle("other", freshCopy(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Label(context.Background(), "fresh", []string{d.Valid[0].Text}, false); err != nil {
		t.Fatal(err)
	}
}

// TestAgreementDuringRemap: the growth loop replays a promoted bundle
// through bundle.Agreement while the same tenant keeps being remapped
// under MaxResident 1. Serving must only read the bundle, so under
// -race the replay and the remaps never touch the same field.
func TestAgreementDuringRemap(t *testing.T) {
	_, d, path := trained(t)
	r, _ := newRegistry(t, registry.Options{MaxResident: 1, Serve: serve.Options{Workers: 2}})
	for _, tenant := range []string{"a", "b"} {
		if err := r.Register(tenant, path); err != nil {
			t.Fatal(err)
		}
	}
	promoted := freshCopy(t)
	if _, err := r.Promote("a", promoted, true); err != nil {
		t.Fatal(err)
	}
	texts := []string{d.Valid[0].Text, d.Valid[1].Text, d.Valid[2].Text}
	parent := freshCopy(t)

	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			// Each label of a evicts b and each label of b evicts a, so
			// every round serves the promoted bundle from a new server.
			for _, tenant := range []string{"a", "b"} {
				if _, err := r.Label(context.Background(), tenant, texts[:1], false); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case err, ok := <-done:
			if ok {
				t.Fatal(err)
			}
			running = false
		default:
			if got := bundle.Agreement(parent, promoted, texts); got != 1 {
				t.Fatalf("agreement of identical artifacts = %v, want 1", got)
			}
		}
	}
}

// TestSharedBundle: one *bundle.Bundle registered under two tenants is
// served by two servers at once. Both serve the offline predictions bit
// for bit, and serving leaves the bundle's featurizer and end model,
// worker bounds included, exactly as they were.
func TestSharedBundle(t *testing.T) {
	_, d, _ := trained(t)
	b := freshCopy(t)
	featBefore, emBefore := *b.Featurizer, *b.EndModel
	r, _ := newRegistry(t, registry.Options{Serve: serve.Options{Workers: 3}})
	for _, tenant := range []string{"x", "y"} {
		if err := r.RegisterBundle(tenant, b); err != nil {
			t.Fatal(err)
		}
	}

	var texts []string
	for _, e := range d.Valid {
		texts = append(texts, e.Text)
	}
	X := b.Featurizer.TransformAll(dataset.FeatureCorpus(d.Valid))
	want := b.EndModel.PredictProbaAll(X)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := []string{"x", "y"}[w%2]
			for i := w; i < len(texts); i += 8 {
				preds, err := r.Label(context.Background(), tenant, texts[i:i+1], false)
				if err != nil {
					errc <- err
					return
				}
				for c, p := range preds[0].Proba {
					if math.Float64bits(p) != math.Float64bits(want[i][c]) {
						errc <- fmt.Errorf("tenant %s text %d class %d: served %v, offline %v", tenant, i, c, p, want[i][c])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if b.Featurizer.Workers != 0 {
		t.Errorf("bundle featurizer workers = %d after serving, want 0", b.Featurizer.Workers)
	}
	if !reflect.DeepEqual(*b.Featurizer, featBefore) || !reflect.DeepEqual(*b.EndModel, emBefore) {
		t.Error("serving changed the shared bundle's featurizer or end model")
	}
}

// TestCloseDuringRemaps: Close lands while two tenants keep evicting
// each other under MaxResident 1. It must return once every server the
// registry created has closed, and every later call must see ErrClosed.
func TestCloseDuringRemaps(t *testing.T) {
	_, d, path := trained(t)
	mreg := obs.NewRegistry()
	r := registry.New(obs.New(nil, mreg, nil), registry.Options{MaxResident: 1, Serve: serve.Options{Workers: 1}})
	for _, tenant := range []string{"a", "b"} {
		if err := r.Register(tenant, path); err != nil {
			t.Fatal(err)
		}
	}
	var wg, started sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		wg.Add(1)
		started.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := r.Label(context.Background(), tenant, []string{d.Valid[0].Text}, false)
				if i == 0 {
					started.Done()
				}
				if errors.Is(err, registry.ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(tenant)
	}
	started.Wait()
	r.Close()
	wg.Wait()
	if got := gauge(mreg, "serve_bundles_resident"); got != 0 {
		t.Errorf("resident after close = %v, want 0", got)
	}
	if _, err := r.Rollback("a"); !errors.Is(err, registry.ErrClosed) {
		t.Errorf("rollback after close: err = %v, want ErrClosed", err)
	}
}
