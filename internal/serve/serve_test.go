package serve_test

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

var (
	trainOnce sync.Once
	trainedB  *bundle.Bundle
	trainedD  *dataset.Dataset
	trainErr  error
)

// trained runs the pipeline once per test binary and hands every test
// the same bundle, which servers only read (tests must not mutate it).
func trained(t *testing.T) (*bundle.Bundle, *dataset.Dataset) {
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
		trainedB, trainErr = bundle.New(d, cfg, res)
		trainedD = d
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainedB, trainedD
}

func newServer(t *testing.T, opts serve.Options) (*serve.Server, *obs.Registry, *dataset.Dataset) {
	t.Helper()
	b, d := trained(t)
	reg := obs.NewRegistry()
	s, err := serve.New(b, obs.New(nil, reg, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg, d
}

// offlineExpected computes, per validation text, the offline-path
// prediction the server must reproduce bit for bit.
func offlineExpected(b *bundle.Bundle, d *dataset.Dataset) (texts []string, probas [][]float64, labels []int) {
	for _, e := range d.Valid {
		texts = append(texts, e.Text)
	}
	X := b.Featurizer.TransformAll(dataset.FeatureCorpus(d.Valid))
	return texts, b.EndModel.PredictProbaAll(X), b.EndModel.Predict(X)
}

func assertPrediction(t *testing.T, got serve.Prediction, wantProba []float64, wantLabel int, text string) {
	t.Helper()
	if got.Label != wantLabel {
		t.Fatalf("text %q: served label %d, offline %d", text, got.Label, wantLabel)
	}
	if len(got.Proba) != len(wantProba) {
		t.Fatalf("text %q: %d classes served, %d offline", text, len(got.Proba), len(wantProba))
	}
	for c := range wantProba {
		if math.Float64bits(got.Proba[c]) != math.Float64bits(wantProba[c]) {
			t.Fatalf("text %q class %d: served proba %v, offline %v", text, c, got.Proba[c], wantProba[c])
		}
	}
}

// TestServedMatchesOffline is the serving bit-identity contract: every
// validation text served through the coalescer — alone or in one big
// batch — gets exactly the offline Evaluate-path prediction.
func TestServedMatchesOffline(t *testing.T) {
	s, _, d := newServer(t, serve.Options{Workers: runtime.GOMAXPROCS(0)})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)

	// One big batch request.
	preds, err := s.Label(context.Background(), texts, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range texts {
		assertPrediction(t, preds[i], probas[i], labels[i], texts[i])
	}

	// Single-text requests (each may land in its own micro-batch).
	for i := 0; i < len(texts) && i < 25; i++ {
		got, err := s.Label(context.Background(), texts[i:i+1], false)
		if err != nil {
			t.Fatal(err)
		}
		assertPrediction(t, got[0], probas[i], labels[i], texts[i])
	}
}

// TestServeExplain checks explain mode: LF votes match direct
// application and the label-model posterior matches the predictor.
func TestServeExplain(t *testing.T) {
	s, _, d := newServer(t, serve.Options{})
	b, _ := trained(t)
	pred := b.LabelModel.NewPredictor()

	explained := 0
	for i, e := range d.Valid {
		if i >= 40 {
			break
		}
		got, err := s.Label(context.Background(), []string{e.Text}, true)
		if err != nil {
			t.Fatal(err)
		}
		var js, votes []int
		for j, f := range b.LFs {
			if v := f.Apply(&dataset.Example{ID: -1, Text: e.Text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}); v != -1 {
				js = append(js, j)
				votes = append(votes, v)
			}
		}
		if len(got[0].LFs) != len(js) {
			t.Fatalf("text %d: %d LF votes served, want %d", i, len(got[0].LFs), len(js))
		}
		for tt, j := range js {
			if got[0].LFs[tt].Name != b.LFs[j].Name() || got[0].LFs[tt].Vote != votes[tt] {
				t.Fatalf("text %d vote %d: got %+v, want %s=%d", i, tt, got[0].LFs[tt], b.LFs[j].Name(), votes[tt])
			}
		}
		want := pred.Posterior(js, votes)
		if (want == nil) != (got[0].LabelModelProba == nil) {
			t.Fatalf("text %d: posterior presence mismatch", i)
		}
		if want != nil {
			explained++
			for c := range want {
				if math.Float64bits(want[c]) != math.Float64bits(got[0].LabelModelProba[c]) {
					t.Fatalf("text %d class %d: posterior %v != %v", i, c, got[0].LabelModelProba[c], want[c])
				}
			}
		}
	}
	if explained == 0 {
		t.Fatal("no covered example exercised the label-model posterior")
	}
}

// TestServeConcurrentLoad is the coalescer race test: many clients
// mixing single and batch requests, every response checked against the
// sequentially-computed expectation — no dropped, duplicated, or
// cross-wired responses. Run it under -race (make race does).
func TestServeConcurrentLoad(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 16, Workers: 4})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)

	const clients = 8
	const requests = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var served atomic64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				// Deterministic mix: every third request is a batch of 5.
				start := (c*31 + r*7) % len(texts)
				n := 1
				if r%3 == 0 {
					n = 5
				}
				req := make([]string, 0, n)
				for k := 0; k < n; k++ {
					req = append(req, texts[(start+k)%len(texts)])
				}
				preds, err := s.Label(context.Background(), req, r%5 == 0)
				if err != nil {
					errs <- err
					return
				}
				if len(preds) != n {
					t.Errorf("client %d req %d: %d predictions for %d texts", c, r, len(preds), n)
					return
				}
				for k := 0; k < n; k++ {
					i := (start + k) % len(texts)
					assertPredictionErr(t, preds[k], probas[i], labels[i], c, r, k)
				}
				served.add(int64(n))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := reg.CounterValue("serve_texts_total"); got != float64(served.load()) {
		t.Errorf("serve_texts_total = %v, served %d", got, served.load())
	}
	if reg.CounterValue("serve_batches_total") == 0 {
		t.Error("no batches dispatched")
	}
	if reg.CounterValue("serve_errors_total") != 0 {
		t.Errorf("serve_errors_total = %v", reg.CounterValue("serve_errors_total"))
	}
}

// assertPredictionErr is assertPrediction with t.Errorf (goroutine-safe
// reporting; t.Fatalf must not be called off the test goroutine).
func assertPredictionErr(t *testing.T, got serve.Prediction, wantProba []float64, wantLabel int, c, r, k int) {
	if got.Label != wantLabel {
		t.Errorf("client %d req %d slot %d: label %d != %d", c, r, k, got.Label, wantLabel)
		return
	}
	for ci := range wantProba {
		if math.Float64bits(got.Proba[ci]) != math.Float64bits(wantProba[ci]) {
			t.Errorf("client %d req %d slot %d class %d: proba %v != %v", c, r, k, ci, got.Proba[ci], wantProba[ci])
			return
		}
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestServeBatching pins greedy draining: while the loop runs a first
// single, 23 more singles queue up, and the next batch takes them all at
// once — exactly 2 batches, of 1 and 23 texts, with no wait window.
func TestServeBatching(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 32})
	h := holdLoop(s)
	var wg sync.WaitGroup
	label := func(i int) {
		defer wg.Done()
		if _, err := s.Label(context.Background(), []string{d.Valid[i%len(d.Valid)].Text}, false); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go label(0)
	<-h.held
	for i := 1; i < 24; i++ {
		wg.Add(1)
		go label(i)
	}
	waitQueued(t, reg, 23)
	close(h.release)
	wg.Wait()
	h.assertSizes(t, 1, 23)
	if got := reg.CounterValue("serve_batches_total"); got != 2 {
		t.Errorf("serve_batches_total = %v, want 2", got)
	}
}

// labelAsync labels texts on its own goroutine; the returned function
// waits for the result.
func labelAsync(t *testing.T, s *serve.Server, texts []string) func() []serve.Prediction {
	var preds []serve.Prediction
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		preds, err = s.Label(context.Background(), texts, false)
	}()
	return func() []serve.Prediction {
		t.Helper()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
}

// TestServeSplitRequest: a request wider than MaxBatch is served in
// MaxBatch-text batches, its predictions in request order and
// bit-identical to offline; a request that fits a batch is never cut, so
// four 64-text requests queued behind a single go out as four full
// batches.
func TestServeSplitRequest(t *testing.T) {
	b, _ := trained(t)
	s, reg, d := newServer(t, serve.Options{MaxBatch: 64})
	texts, probas, labels := offlineExpected(b, d)
	cycle := func(n, from int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = texts[(from+i)%len(texts)]
		}
		return out
	}

	h := holdLoop(s)
	wide := labelAsync(t, s, cycle(150, 0))
	<-h.held
	close(h.release)
	preds := wide()
	h.assertSizes(t, 64, 64, 22)
	if len(preds) != 150 {
		t.Fatalf("%d predictions for 150 texts", len(preds))
	}
	for i, p := range preds {
		k := i % len(texts)
		assertPrediction(t, p, probas[k], labels[k], texts[k])
	}

	// Behind a single, a 64-text request does not fit the single's batch,
	// so it starts the next one instead of being cut.
	h = holdLoop(s)
	first := labelAsync(t, s, cycle(1, 0))
	<-h.held
	single := labelAsync(t, s, cycle(1, 1))
	waitQueued(t, reg, 1)
	var bulk []func() []serve.Prediction
	for r := 0; r < 4; r++ {
		bulk = append(bulk, labelAsync(t, s, cycle(64, 7*r)))
	}
	waitQueued(t, reg, 1+4*64)
	close(h.release)
	first()
	single()
	for _, wait := range bulk {
		if got := wait(); len(got) != 64 {
			t.Fatalf("%d predictions for 64 texts", len(got))
		}
	}
	h.assertSizes(t, 1, 1, 64, 64, 64, 64)
}

// TestServeCloseDrains: Close while requests are queued behind a held
// loop turns new requests away with ErrClosed at once, answers every
// admitted request once the loop is released, and then returns. Run it
// under -race (make race does).
func TestServeCloseDrains(t *testing.T) {
	b, _ := trained(t)
	s, reg, d := newServer(t, serve.Options{MaxBatch: 4})
	texts, probas, labels := offlineExpected(b, d)
	h := holdLoop(s)

	first := labelAsync(t, s, texts[:1])
	<-h.held
	// A single, a request that spans two batches, and another single.
	waits := []func() []serve.Prediction{
		labelAsync(t, s, texts[1:2]),
		labelAsync(t, s, texts[2:8]),
		labelAsync(t, s, texts[8:9]),
	}
	waitQueued(t, reg, 8)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitCounter(t, func() float64 {
		if s.Closing() {
			return 1
		}
		return 0
	}, 1, "Close begun")
	if _, err := s.Label(context.Background(), texts[:1], false); err != serve.ErrClosed {
		t.Fatalf("Label during Close: %v, want ErrClosed", err)
	}

	close(h.release)
	got := first()
	for _, wait := range waits {
		got = append(got, wait()...)
	}
	for i, p := range got {
		assertPrediction(t, p, probas[i], labels[i], texts[i])
	}
	<-closed
	if _, err := s.Label(context.Background(), texts[:1], false); err != serve.ErrClosed {
		t.Errorf("Label after Close: %v, want ErrClosed", err)
	}
}

func TestServeClose(t *testing.T) {
	b, _ := trained(t)
	s, err := serve.New(b, nil, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(context.Background(), []string{"hello"}, false); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Label(context.Background(), []string{"hello"}, false); err != serve.ErrClosed {
		t.Errorf("Label after Close: %v, want ErrClosed", err)
	}
}

func TestServeEmptyAndCancelled(t *testing.T) {
	s, _, _ := newServer(t, serve.Options{})
	if _, err := s.Label(context.Background(), nil, false); err == nil {
		t.Error("empty request accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Label(ctx, []string{"hello"}, false); err == nil {
		t.Error("cancelled request returned no error")
	}
}
