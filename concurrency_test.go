package datasculpt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"datasculpt/internal/llm"
)

// stressConfig is a small but non-trivial pipeline configuration shared
// by every goroutine of the stress test.
func stressConfig() Config {
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 20
	cfg.FeatureDim = 2048
	cfg.Seed = 5
	return cfg
}

// stressDataset loads an independent copy of the stress corpus. Each
// goroutine needs its own: Example token fields are populated lazily, so
// a Dataset must not be shared across concurrent runs.
func stressDataset(t testing.TB) *Dataset {
	t.Helper()
	d, err := LoadDataset("youtube", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// comparable strips a Result to the fields the stress test asserts on
// (the LF pointers differ per run even when the LFs are identical).
type comparableResult struct {
	NumLFs           int
	LFAccuracy       float64
	LFCoverage       float64
	TotalCoverage    float64
	EndMetric        float64
	Calls            int
	PromptTokens     int
	CompletionTokens int
	CostUSD          float64
	LFs              string
}

func comparableOf(t testing.TB, r *Result) comparableResult {
	t.Helper()
	data, err := MarshalLFs(r.LFs)
	if err != nil {
		t.Fatal(err)
	}
	return comparableResult{
		NumLFs: r.NumLFs, LFAccuracy: r.LFAccuracy, LFCoverage: r.LFCoverage,
		TotalCoverage: r.TotalCoverage, EndMetric: r.EndMetric,
		Calls: r.Calls, PromptTokens: r.PromptTokens,
		CompletionTokens: r.CompletionTokens, CostUSD: r.CostUSD,
		LFs: string(data),
	}
}

// TestConcurrentRunsSharedModel is the ISSUE's -race stress test: many
// concurrent Runs share one cached + metered model and must produce
// byte-identical results with exact usage accounting.
//
// The cache is primed by a serial baseline run first; after priming,
// every concurrent run issues the identical request sequence and is
// served entirely from cache, so the shared Simulated's stream state
// cannot leak call-order nondeterminism into the results.
func TestConcurrentRunsSharedModel(t *testing.T) {
	const goroutines = 8

	sim, err := llm.NewSimulated("gpt-3.5", stressDataset(t), stressConfig().Seed+101)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(sim)
	shared := NewMetered(cache)

	runOnce := func(d *Dataset) (*Result, error) {
		cfg := stressConfig()
		cfg.ChatModel = shared
		return Run(d, cfg)
	}

	// serial baseline primes the cache and fixes the expected result
	baseline, err := runOnce(stressDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	want := comparableOf(t, baseline)
	if want.Calls == 0 || want.PromptTokens == 0 {
		t.Fatalf("baseline issued no LLM calls: %+v", want)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 0 || misses != want.Calls {
		t.Fatalf("priming run: hits=%d misses=%d, want 0/%d", hits, misses, want.Calls)
	}

	var wg sync.WaitGroup
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// each goroutine loads its own dataset copy; only the model
			// stack is shared
			d, err := LoadDataset("youtube", 11, 0.2)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = runOnce(d)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i, r := range results {
		if got := comparableOf(t, r); !reflect.DeepEqual(got, want) {
			t.Errorf("goroutine %d result diverged from serial baseline:\ngot  %+v\nwant %+v", i, got, want)
		}
	}

	// shared-meter accounting: 1 priming + 8 concurrent runs, all
	// identical, so totals are exactly 9x the single-run usage
	snap := shared.Meter().Snapshot()
	total := goroutines + 1
	if snap.Calls != total*want.Calls {
		t.Errorf("meter calls = %d, want %d", snap.Calls, total*want.Calls)
	}
	if snap.PromptTokens != total*want.PromptTokens {
		t.Errorf("meter prompt tokens = %d, want %d", snap.PromptTokens, total*want.PromptTokens)
	}
	if snap.CompletionTokens != total*want.CompletionTokens {
		t.Errorf("meter completion tokens = %d, want %d", snap.CompletionTokens, total*want.CompletionTokens)
	}

	// cache accounting: the concurrent runs replay the primed requests
	if hits := cache.Hits(); hits != goroutines*want.Calls {
		t.Errorf("cache hits = %d, want %d", hits, goroutines*want.Calls)
	}
	if misses := cache.Misses(); misses != want.Calls {
		t.Errorf("cache misses = %d, want %d (priming only)", misses, want.Calls)
	}
}

// TestConcurrentRunsIndependentModels exercises the other sharing mode:
// goroutines with fully independent model stacks racing only on package
// state. Results must match a serial reference run exactly.
func TestConcurrentRunsIndependentModels(t *testing.T) {
	const goroutines = 8

	reference, err := Run(stressDataset(t), stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := comparableOf(t, reference)

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := LoadDataset("youtube", 11, 0.2)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			r, err := Run(d, stressConfig())
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			if got := comparableOf(t, r); !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d diverged:\ngot  %+v\nwant %+v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
}

// TestRateLimitedSharedStack verifies the full middleware sandwich —
// Metered(Cache(RateLimiter(model))) — stays correct under concurrency:
// the limiter paces only cache misses, so a generous burst makes the
// stack fast while totals still reconcile.
func TestRateLimitedSharedStack(t *testing.T) {
	d := stressDataset(t)
	sim, err := llm.NewSimulated("gpt-3.5", d, stressConfig().Seed+101)
	if err != nil {
		t.Fatal(err)
	}
	limited := NewRateLimiter(sim, 100000, 1000)
	cache := NewCache(limited)
	shared := NewMetered(cache)

	cfg := stressConfig()
	cfg.ChatModel = shared
	first, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(stressDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(comparableOf(t, first)) != fmt.Sprint(comparableOf(t, second)) {
		t.Error("cached replay diverged from original run")
	}
	if cache.Hits() != first.Calls || cache.Misses() != first.Calls {
		t.Errorf("cache hits/misses = %d/%d, want %d/%d",
			cache.Hits(), cache.Misses(), first.Calls, first.Calls)
	}
	if got := shared.Meter().Calls(); got != 2*first.Calls {
		t.Errorf("meter calls = %d, want %d", got, 2*first.Calls)
	}
}
