package llm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datasculpt/internal/obs"
)

// countingModel is a deterministic inner model that counts Chat calls.
type countingModel struct {
	calls atomic.Int64
	delay time.Duration
	fail  atomic.Bool
}

func (c *countingModel) ModelName() string           { return "counting" }
func (c *countingModel) Pricing() (float64, float64) { return 1, 2 }
func (c *countingModel) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if c.fail.Load() {
		return nil, errors.New("inner boom")
	}
	out := make([]Response, n)
	for i := range out {
		out[i] = Response{
			Content: fmt.Sprintf("echo %s #%d", messages[len(messages)-1].Content, i),
			Usage:   Usage{PromptTokens: 10, CompletionTokens: 5},
		}
	}
	return out, nil
}

func msg(s string) []Message { return []Message{{Role: User, Content: s}} }

func TestCacheHitsAndMisses(t *testing.T) {
	inner := &countingModel{}
	c := NewCache(inner)
	ctx := context.Background()

	r1, err := c.Chat(ctx, msg("a"), 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Chat(ctx, msg("a"), 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Content != r2[0].Content || len(r1) != len(r2) {
		t.Errorf("cached responses differ: %v vs %v", r1, r2)
	}
	// distinct parameters are distinct keys
	if _, err := c.Chat(ctx, msg("a"), 0.7, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Chat(ctx, msg("a"), 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Chat(ctx, msg("b"), 0.7, 2); err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 4 {
		t.Errorf("inner calls = %d, want 4", got)
	}
	if c.Hits() != 1 || c.Misses() != 4 || c.Len() != 4 {
		t.Errorf("hits=%d misses=%d len=%d", c.Hits(), c.Misses(), c.Len())
	}
	if c.ModelName() != "counting" {
		t.Errorf("model name = %q", c.ModelName())
	}
	if p, cp := c.Pricing(); p != 1 || cp != 2 {
		t.Errorf("pricing = %v/%v", p, cp)
	}
}

func TestCacheKeyEscapesBoundaries(t *testing.T) {
	inner := &countingModel{}
	c := NewCache(inner)
	ctx := context.Background()
	// two message lists whose naive concatenation collides
	a := []Message{{Role: User, Content: "x|y"}}
	b := []Message{{Role: User, Content: "x"}, {Role: User, Content: "y"}}
	if _, err := c.Chat(ctx, a, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Chat(ctx, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Errorf("colliding keys: misses = %d, want 2", c.Misses())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	inner := &countingModel{delay: 20 * time.Millisecond}
	c := NewCache(inner)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Chat(context.Background(), msg("same"), 0.7, 1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("concurrent identical misses reached inner %d times, want 1", got)
	}
	if c.Hits() != goroutines-1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", c.Hits(), c.Misses(), goroutines-1)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	inner := &countingModel{}
	inner.fail.Store(true)
	c := NewCache(inner)
	if _, err := c.Chat(context.Background(), msg("x"), 0, 1); err == nil {
		t.Fatal("error swallowed")
	}
	inner.fail.Store(false)
	if _, err := c.Chat(context.Background(), msg("x"), 0, 1); err != nil {
		t.Fatalf("error cached: %v", err)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("inner calls = %d, want 2 (failed flight retried)", inner.calls.Load())
	}
}

func TestRateLimiterPacesCalls(t *testing.T) {
	inner := &countingModel{}
	rl := NewRateLimiter(inner, 100, 1) // 10ms interval
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := rl.Chat(ctx, msg("x"), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// first call free, three paced ~10ms apart
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("4 calls at 100 QPS took %v, want >= 25ms", elapsed)
	}
	if rl.ModelName() != "counting" {
		t.Errorf("model name = %q", rl.ModelName())
	}
}

func TestRateLimiterBurst(t *testing.T) {
	inner := &countingModel{}
	rl := NewRateLimiter(inner, 2, 8) // slow rate, generous burst
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 8; i++ {
		if _, err := rl.Chat(ctx, msg("x"), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("burst of 8 took %v, should pass immediately", elapsed)
	}
}

func TestRateLimiterAbortsOnContextCancel(t *testing.T) {
	inner := &countingModel{}
	rl := NewRateLimiter(inner, 0.5, 1) // 2s interval
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rl.Chat(ctx, msg("x"), 0, 1); err != nil {
		t.Fatal(err) // burst slot
	}
	_, err := rl.Chat(ctx, msg("y"), 0, 1)
	if err == nil {
		t.Fatal("wait survived context cancellation")
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Errorf("error = %v, want ErrRateLimited", err)
	}
}

func TestMeteredRecordsConcurrently(t *testing.T) {
	inner := &countingModel{}
	m := NewMetered(inner)
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := m.Chat(context.Background(), msg(fmt.Sprintf("%d-%d", g, i)), 0.7, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Meter().Snapshot()
	if snap.Calls != goroutines*per {
		t.Errorf("meter calls = %d, want %d", snap.Calls, goroutines*per)
	}
	// every call bills 2 samples x (10 prompt + 5 completion)
	if snap.PromptTokens != goroutines*per*20 || snap.CompletionTokens != goroutines*per*10 {
		t.Errorf("meter tokens = %d/%d", snap.PromptTokens, snap.CompletionTokens)
	}
	wantCost := float64(snap.PromptTokens)/1e6*1 + float64(snap.CompletionTokens)/1e6*2
	if snap.CostUSD != wantCost {
		t.Errorf("cost = %v, want %v", snap.CostUSD, wantCost)
	}
}

// TestOpenAITypedErrors checks the client's classification and that a
// server answering 429 and then 503 sees exactly one request per Chat.
func TestOpenAITypedErrors(t *testing.T) {
	status := atomic.Int32{}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(int(status.Load()))
		if status.Load() == http.StatusOK {
			fmt.Fprint(w, `{}`) // decodes but has no choices
		}
	}))
	t.Cleanup(srv.Close)

	c := NewOpenAI(srv.URL, "", "m")
	for _, tc := range []struct {
		status int32
		want   error
	}{
		{http.StatusTooManyRequests, ErrRateLimited},
		{http.StatusServiceUnavailable, ErrUnavailable},
		{http.StatusOK, ErrBadResponse},
	} {
		status.Store(tc.status)
		calls.Store(0)
		if _, err := c.Chat(context.Background(), msg("Query: x"), 0, 1); !errors.Is(err, tc.want) {
			t.Errorf("status %d: error = %v, want %v", tc.status, err, tc.want)
		}
		if calls.Load() != 1 {
			t.Errorf("status %d: %d requests, want exactly 1", tc.status, calls.Load())
		}
	}
}

// TestOpenAIBadResponseNotRetried: the composed stack fails fast on a
// malformed body.
func TestOpenAIBadResponseNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, `not json`)
	}))
	t.Cleanup(srv.Close)
	r := NewRetry(NewOpenAI(srv.URL, "", "m"), WithRetryAttempts(6),
		WithRetryBackoff(time.Millisecond, time.Millisecond))
	if _, err := r.Chat(context.Background(), msg("Query: x"), 0, 1); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("error = %v, want ErrBadResponse", err)
	}
	if calls.Load() != 1 {
		t.Errorf("malformed response retried %d times", calls.Load()-1)
	}
}

// TestOpenAIContextCancelsBackoff: the composed stack abandons a long
// backoff as soon as the caller's context is done.
func TestOpenAIContextCancelsBackoff(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	r := NewRetry(NewRateLimiter(NewOpenAI(srv.URL, "", "m"), 1000, 1),
		WithRetryBackoff(10*time.Second, 10*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Chat(ctx, msg("Query: x"), 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("backoff ignored context: took %v", elapsed)
	}
	if calls.Load() != 1 {
		t.Errorf("requests = %d, want 1 before the backoff", calls.Load())
	}
}

func TestOpenAIOptions(t *testing.T) {
	c := NewOpenAI("http://x", "k", "m")
	if c.HTTPClient == nil {
		t.Error("default HTTP client not installed")
	}
	c.PromptPrice, c.CompletionPrice = 1.5, 2.5
	if p, cp := c.Pricing(); p != 1.5 || cp != 2.5 || c.ModelName() != "m" {
		t.Errorf("pricing = %v/%v, model %q", p, cp, c.ModelName())
	}
}

func TestCacheStatsSnapshot(t *testing.T) {
	inner := &countingModel{}
	reg := obs.NewRegistry()
	c := NewCache(inner).Instrument(reg)
	ctx := context.Background()
	for _, prompt := range []string{"a", "a", "b", "a"} {
		if _, err := c.Chat(ctx, msg(prompt), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2/2/2", s)
	}
	if s.Calls() != 4 || s.HitRate() != 0.5 {
		t.Errorf("calls=%d hitRate=%v", s.Calls(), s.HitRate())
	}
	// legacy accessors stay consistent with the snapshot
	if c.Hits() != s.Hits || c.Misses() != s.Misses || c.Len() != s.Entries {
		t.Error("Hits/Misses/Len diverge from Stats")
	}
	// registry mirrors
	if got := reg.CounterValue("llm_cache_hits_total"); got != 2 {
		t.Errorf("llm_cache_hits_total = %v, want 2", got)
	}
	if got := reg.CounterValue("llm_cache_misses_total"); got != 2 {
		t.Errorf("llm_cache_misses_total = %v, want 2", got)
	}
	var sum CacheStats
	sum.Add(s)
	sum.Add(CacheStats{Hits: 1, Misses: 3, Entries: 3})
	if sum.Hits != 3 || sum.Misses != 5 || sum.Entries != 5 {
		t.Errorf("CacheStats.Add = %+v", sum)
	}
}

func TestMeteredInstrumentMatchesMeter(t *testing.T) {
	inner := &countingModel{}
	reg := obs.NewRegistry()
	m := NewMetered(inner).Instrument(reg)
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := m.Chat(context.Background(), msg(fmt.Sprintf("%d-%d", g, i)), 0.7, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	snap := m.Stats()
	if snap.Calls != goroutines*per {
		t.Fatalf("calls = %d, want %d", snap.Calls, goroutines*per)
	}
	if got := reg.CounterValue("llm_calls_total"); got != float64(snap.Calls) {
		t.Errorf("llm_calls_total = %v, want %d", got, snap.Calls)
	}
	if got := reg.CounterValue("llm_tokens_total"); got != float64(snap.TotalTokens()) {
		t.Errorf("llm_tokens_total = %v, want %d", got, snap.TotalTokens())
	}
	if got := reg.CounterValue("llm_prompt_tokens_total"); got != float64(snap.PromptTokens) {
		t.Errorf("llm_prompt_tokens_total = %v, want %d", got, snap.PromptTokens)
	}
	// the cost counter is kept exactly equal to the meter, not a float
	// sum of per-call deltas
	if got := reg.CounterValue("llm_cost_usd_total"); got != snap.CostUSD {
		t.Errorf("llm_cost_usd_total = %v, want %v", got, snap.CostUSD)
	}
	// failed calls record nothing
	inner.fail.Store(true)
	if _, err := m.Chat(context.Background(), msg("boom"), 0, 1); err == nil {
		t.Fatal("expected inner failure")
	}
	if got := reg.CounterValue("llm_calls_total"); got != float64(snap.Calls) {
		t.Errorf("failed call was counted: %v", got)
	}
}

func TestRateLimiterPreCanceledContext(t *testing.T) {
	inner := &countingModel{}
	reg := obs.NewRegistry()
	rl := NewRateLimiter(inner, 1000000, 1000).Instrument(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// even though a slot is free, a dead context must not pass through
	if _, err := rl.Chat(ctx, msg("x"), 0, 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("pre-canceled context: err = %v, want ErrRateLimited", err)
	}
	if got := inner.calls.Load(); got != 0 {
		t.Errorf("canceled call reached the inner model %d times", got)
	}
	if got := reg.CounterValue("llm_ratelimit_abandoned_total"); got != 1 {
		t.Errorf("llm_ratelimit_abandoned_total = %v, want 1", got)
	}
}

func TestRateLimiterRecordsAbandonedWaitTime(t *testing.T) {
	inner := &countingModel{}
	reg := obs.NewRegistry()
	rl := NewRateLimiter(inner, 0.5, 1).Instrument(reg) // 2s interval
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rl.Chat(ctx, msg("x"), 0, 1); err != nil {
		t.Fatal(err) // burst slot
	}
	if _, err := rl.Chat(ctx, msg("y"), 0, 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if got := reg.CounterValue("llm_ratelimit_abandoned_total"); got != 1 {
		t.Errorf("llm_ratelimit_abandoned_total = %v, want 1", got)
	}
	hist := reg.Histogram("llm_ratelimit_wait_seconds", "", obs.DurationBuckets).Snapshot()
	if hist.Count != 1 {
		t.Errorf("abandoned wait not observed: count = %d, want 1", hist.Count)
	}
	if hist.Sum <= 0 || hist.Sum > 1 {
		t.Errorf("abandoned wait observed %vs, want ~0.02s", hist.Sum)
	}
}

func TestMiddlewareStackComposes(t *testing.T) {
	// client-shaped stack: Metered(Cache(RateLimiter(inner)))
	inner := &countingModel{}
	stack := NewMetered(NewCache(NewRateLimiter(inner, 1000, 4)))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := stack.Chat(ctx, msg("same prompt"), 0.7, 1); err != nil {
			t.Fatal(err)
		}
	}
	if inner.calls.Load() != 1 {
		t.Errorf("inner calls = %d, want 1 (cache above limiter)", inner.calls.Load())
	}
	// the meter sits above the cache, so hits are still accounted
	if got := stack.Meter().Calls(); got != 3 {
		t.Errorf("metered calls = %d, want 3", got)
	}
}
