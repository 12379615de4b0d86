package llm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"datasculpt/internal/obs"
)

// flakyModel fails its first failUntil calls with err, then echoes.
type flakyModel struct {
	calls     atomic.Int64
	failUntil int64
	err       error
}

func (f *flakyModel) ModelName() string           { return "flaky" }
func (f *flakyModel) Pricing() (float64, float64) { return 1, 1 }
func (f *flakyModel) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	if f.calls.Add(1) <= f.failUntil {
		return nil, f.err
	}
	out := make([]Response, n)
	for i := range out {
		out[i] = Response{Content: "ok", Usage: Usage{PromptTokens: 1, CompletionTokens: 1}}
	}
	return out, nil
}

// noSleep records requested delays instead of waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	for _, kind := range []error{ErrRateLimited, ErrUnavailable} {
		inner := &flakyModel{failUntil: 2, err: fmt.Errorf("%w: transient", kind)}
		reg := obs.NewRegistry()
		var delays []time.Duration
		r := NewRetry(inner, WithRetryAttempts(4), WithRetryJitter(0),
			WithRetryBackoff(time.Millisecond, 10*time.Millisecond)).Instrument(reg)
		r.sleep = noSleep(&delays)
		resp, err := r.Chat(context.Background(), msg("x"), 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if resp[0].Content != "ok" || inner.calls.Load() != 3 {
			t.Errorf("%v: calls = %d, want 3", kind, inner.calls.Load())
		}
		if got := reg.CounterValue("llm_retries_total"); got != 2 {
			t.Errorf("llm_retries_total = %v, want 2", got)
		}
		// exponential doubling with jitter off
		if len(delays) != 2 || delays[0] != time.Millisecond || delays[1] != 2*time.Millisecond {
			t.Errorf("delays = %v, want [1ms 2ms]", delays)
		}
	}
}

func TestRetryFailsFastOnBadResponse(t *testing.T) {
	inner := &flakyModel{failUntil: 100, err: fmt.Errorf("%w: no choices", ErrBadResponse)}
	r := NewRetry(inner, WithRetryAttempts(5))
	if _, err := r.Chat(context.Background(), msg("x"), 0, 1); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err = %v, want ErrBadResponse", err)
	}
	if inner.calls.Load() != 1 {
		t.Errorf("bad response retried: %d calls", inner.calls.Load())
	}
}

func TestRetryExhausted(t *testing.T) {
	inner := &flakyModel{failUntil: 100, err: fmt.Errorf("%w: storm", ErrRateLimited)}
	reg := obs.NewRegistry()
	var delays []time.Duration
	r := NewRetry(inner, WithRetryAttempts(3), WithRetryJitter(0),
		WithRetryBackoff(time.Millisecond, 2*time.Millisecond)).Instrument(reg)
	r.sleep = noSleep(&delays)
	_, err := r.Chat(context.Background(), msg("x"), 0, 1)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if inner.calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", inner.calls.Load())
	}
	if got := reg.CounterValue("llm_retries_exhausted_total"); got != 1 {
		t.Errorf("llm_retries_exhausted_total = %v, want 1", got)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	hinted := &RetryAfterError{
		After: 123 * time.Millisecond,
		Err:   fmt.Errorf("%w: hinted", ErrRateLimited),
	}
	inner := &flakyModel{failUntil: 1, err: hinted}
	var delays []time.Duration
	r := NewRetry(inner, WithRetryAttempts(3), WithRetryJitter(0.5),
		WithRetryBackoff(time.Millisecond, time.Second))
	r.sleep = noSleep(&delays)
	if _, err := r.Chat(context.Background(), msg("x"), 0, 1); err != nil {
		t.Fatal(err)
	}
	// hinted delays are exact: no jitter, no doubling
	if len(delays) != 1 || delays[0] != 123*time.Millisecond {
		t.Errorf("delays = %v, want [123ms]", delays)
	}

	// hints past the cap are clamped
	hinted.After = time.Hour
	inner = &flakyModel{failUntil: 1, err: hinted}
	delays = nil
	r = NewRetry(inner, WithRetryAttempts(3), WithRetryJitter(0),
		WithRetryBackoff(time.Millisecond, 250*time.Millisecond))
	r.sleep = noSleep(&delays)
	if _, err := r.Chat(context.Background(), msg("x"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 250*time.Millisecond {
		t.Errorf("delays = %v, want [250ms] (capped)", delays)
	}
}

func TestRetryAbortsOnContextCancel(t *testing.T) {
	inner := &flakyModel{failUntil: 100, err: fmt.Errorf("%w: storm", ErrUnavailable)}
	r := NewRetry(inner, WithRetryAttempts(10),
		WithRetryBackoff(10*time.Second, time.Minute))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Chat(ctx, msg("x"), 0, 1)
	if err == nil {
		t.Fatal("canceled retry succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("backoff ignored context: %v", elapsed)
	}
}

func TestBackoffPolicy(t *testing.T) {
	pol := backoffPolicy{base: 100 * time.Millisecond, max: time.Second, jitter: 0}
	wants := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, // capped from here on
	}
	for retry, want := range wants {
		if got := pol.delay(retry, 0, 0); got != want {
			t.Errorf("delay(%d) = %v, want %v", retry, got, want)
		}
	}
	// jitter shaves at most the jitter fraction off
	pol.jitter = 0.5
	for _, u := range []float64{0, 0.5, 0.999} {
		d := pol.delay(0, 0, u)
		if d > 100*time.Millisecond || d < 50*time.Millisecond {
			t.Errorf("jittered delay %v outside [50ms, 100ms]", d)
		}
	}
	// huge retry counts must not overflow into a negative delay
	if d := pol.delay(200, 0, 0); d != pol.max {
		t.Errorf("delay(200) = %v, want cap %v", d, pol.max)
	}
}

func TestRetryAfterErrorChain(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &RetryAfterError{
		After: 2 * time.Second,
		Err:   fmt.Errorf("%w: 429", ErrRateLimited),
	})
	if !Retryable(err) {
		t.Error("RetryAfterError not retryable")
	}
	if d, ok := RetryAfter(err); !ok || d != 2*time.Second {
		t.Errorf("RetryAfter = %v/%v, want 2s/true", d, ok)
	}
	if d, ok := RetryAfter(ErrRateLimited); ok || d != 0 {
		t.Error("bare error produced a hint")
	}
	if Retryable(ErrBadResponse) || Retryable(context.Canceled) {
		t.Error("non-transient error classified retryable")
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	run := func() (map[FaultKind]int, []string) {
		inner := &countingModel{}
		fi := NewFaultInjector(inner, FaultRates{
			RateLimit: 0.2, Timeout: 0.2, Truncate: 0.2, Garbage: 0.2,
		}, 99)
		var outcomes []string
		for i := 0; i < 60; i++ {
			resp, err := fi.Chat(context.Background(), msg(fmt.Sprintf("p%d", i)), 0, 1)
			if err != nil {
				outcomes = append(outcomes, "err:"+err.Error())
				continue
			}
			outcomes = append(outcomes, resp[0].Content)
		}
		return fi.Counts(), outcomes
	}
	counts1, out1 := run()
	counts2, out2 := run()
	for _, kind := range []FaultKind{FaultRateLimit, FaultTimeout, FaultTruncate, FaultGarbage} {
		if counts1[kind] == 0 {
			t.Errorf("fault %s never injected in 60 calls at rate 0.2", kind)
		}
		if counts1[kind] != counts2[kind] {
			t.Errorf("fault %s count differs across identical seeds: %d vs %d",
				kind, counts1[kind], counts2[kind])
		}
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("outcome %d differs across identical seeds: %q vs %q", i, out1[i], out2[i])
		}
	}
}

func TestFaultInjectorKinds(t *testing.T) {
	inner := &countingModel{}
	// rate-limit-only injector: first draw always faults
	fi := NewFaultInjector(inner, FaultRates{RateLimit: 1}, 1)
	_, err := fi.Chat(context.Background(), msg("x"), 0, 1)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 {
		t.Errorf("injected rate limit carries no Retry-After hint: %v/%v", d, ok)
	}
	if inner.calls.Load() != 0 {
		t.Error("rate-limit fault consumed an inner call")
	}

	fi = NewFaultInjector(inner, FaultRates{Timeout: 1}, 1)
	if _, err := fi.Chat(context.Background(), msg("x"), 0, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}

	fi = NewFaultInjector(inner, FaultRates{Truncate: 1}, 1)
	resp, err := fi.Chat(context.Background(), msg("hello"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := inner.Chat(context.Background(), msg("hello"), 0, 1)
	if len(resp[0].Content) >= len(whole[0].Content) {
		t.Errorf("truncated content not shorter: %q", resp[0].Content)
	}

	reg := obs.NewRegistry()
	fi = NewFaultInjector(inner, FaultRates{Garbage: 1}, 1).Instrument(reg)
	resp, err = fi.Chat(context.Background(), msg("hello"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0].Content == whole[0].Content {
		t.Error("garbage fault left the completion intact")
	}
	if got := reg.CounterValue("faults_injected_total"); got != 1 {
		t.Errorf("faults_injected_total = %v, want 1", got)
	}
}

func TestFaultInjectorRatesValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rates summing past 1 accepted")
		}
	}()
	NewFaultInjector(&countingModel{}, FaultRates{RateLimit: 0.6, Garbage: 0.6}, 1)
}

func TestRetryAbsorbsInjectedFaults(t *testing.T) {
	// A Retry-over-FaultInjector stack must hide every transient fault
	// from the caller, and the successful responses must match a
	// fault-free run (transient faults never consume the inner model).
	inner := &countingModel{}
	reg := obs.NewRegistry()
	fi := NewFaultInjector(inner, FaultRates{RateLimit: 0.25, Timeout: 0.25}, 7).Instrument(reg)
	var delays []time.Duration
	r := NewRetry(fi, WithRetryAttempts(20), WithRetryJitter(0),
		WithRetryBackoff(time.Microsecond, time.Millisecond)).Instrument(reg)
	r.sleep = noSleep(&delays)
	for i := 0; i < 40; i++ {
		prompt := fmt.Sprintf("p%d", i)
		resp, err := r.Chat(context.Background(), msg(prompt), 0, 1)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo %s #0", prompt); resp[0].Content != want {
			t.Fatalf("call %d content = %q, want %q", i, resp[0].Content, want)
		}
	}
	if inner.calls.Load() != 40 {
		t.Errorf("inner calls = %d, want 40 (faults must not consume the model)", inner.calls.Load())
	}
	if got := reg.CounterValue("faults_injected_total"); got == 0 {
		t.Error("no faults injected at 50% combined rate")
	}
	if got := reg.CounterValue("llm_retries_total"); got == 0 {
		t.Error("no retries recorded despite injected faults")
	}
}

// TestOpenAIHonorsRetryAfterHeader: the client surfaces a 429's
// Retry-After header as a hint, and NewRetry over it waits exactly that
// long before the one retry.
func TestOpenAIHonorsRetryAfterHeader(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"choices":[{"message":{"role":"assistant","content":"hi"}}],
			"usage":{"prompt_tokens":3,"completion_tokens":1}}`)
	}))
	t.Cleanup(srv.Close)

	r := NewRetry(NewOpenAI(srv.URL, "", "m"))
	var delays []time.Duration
	r.sleep = noSleep(&delays)
	resp, err := r.Chat(context.Background(), msg("Query: x"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0].Content != "hi" {
		t.Errorf("content = %q", resp[0].Content)
	}
	if len(delays) != 1 || delays[0] != 7*time.Second {
		t.Errorf("delays = %v, want [7s] from the Retry-After header", delays)
	}
	if calls.Load() != 2 {
		t.Errorf("requests = %d, want 2", calls.Load())
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d, ok := parseRetryAfter("3"); !ok || d != 3*time.Second {
		t.Errorf("parseRetryAfter(3) = %v/%v", d, ok)
	}
	if d, ok := parseRetryAfter(time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)); !ok || d <= 55*time.Minute {
		t.Errorf("HTTP-date Retry-After = %v/%v", d, ok)
	}
	if d, ok := parseRetryAfter(time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)); !ok || d != 0 {
		t.Errorf("past HTTP-date Retry-After = %v/%v, want 0/true", d, ok)
	}
	for _, v := range []string{"", "soon", "-5"} {
		if _, ok := parseRetryAfter(v); ok {
			t.Errorf("parseRetryAfter(%q) succeeded", v)
		}
	}
}
