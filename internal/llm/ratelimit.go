package llm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datasculpt/internal/obs"
)

// sleepCtx waits d, or returns ctx's error as soon as ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RateLimiter is a ChatModel middleware that caps the call rate against
// a real endpoint with a token bucket: Burst calls pass immediately,
// further calls are spaced 1/QPS apart. Waiting calls abort when their
// context is canceled — including contexts canceled before the call —
// returning an error wrapping ErrRateLimited.
//
// Compose it below the Cache and the Retry middleware
// (Cache -> Retry -> RateLimiter -> client) so cache hits never spend
// rate budget and every retried attempt waits for its own slot.
type RateLimiter struct {
	inner ChatModel

	mu       sync.Mutex
	interval time.Duration
	burst    int
	next     time.Time // earliest time the oldest outstanding slot frees

	// telemetry handles; nil (no-op) until Instrument
	waitSeconds *obs.Histogram
	abandoned   *obs.Counter
}

// NewRateLimiter wraps a model with a qps token bucket (burst 1 when
// burst < 1).
func NewRateLimiter(inner ChatModel, qps float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		inner:    inner,
		interval: time.Duration(float64(time.Second) / qps),
		burst:    burst,
	}
}

// wait blocks until a send slot is available or ctx is done. It reports
// how long the caller actually waited, whether the wait completed or
// was abandoned, so Chat can account the time either way. A context
// that is already done is observed before any slot is claimed — a
// canceled caller neither proceeds nor burns rate budget.
func (r *RateLimiter) wait(ctx context.Context) (waited time.Duration, err error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrRateLimited, err)
	}

	r.mu.Lock()
	now := time.Now()
	// the bucket never accumulates more than `burst` credit
	floor := now.Add(-time.Duration(r.burst-1) * r.interval)
	if r.next.Before(floor) {
		r.next = floor
	}
	wait := r.next.Sub(now)
	r.next = r.next.Add(r.interval)
	r.mu.Unlock()

	if wait <= 0 {
		return 0, nil
	}
	start := time.Now()
	if err := sleepCtx(ctx, wait); err != nil {
		return time.Since(start), fmt.Errorf("%w: %v", ErrRateLimited, err)
	}
	return time.Since(start), nil
}

// Instrument records wait telemetry into the registry and returns the
// receiver for chaining: llm_ratelimit_wait_seconds observes every
// non-zero wait (abandoned waits included, so stolen latency is never
// invisible) and llm_ratelimit_abandoned_total counts waits that ended
// in context cancellation.
func (r *RateLimiter) Instrument(reg *obs.Registry) *RateLimiter {
	r.waitSeconds = reg.Histogram("llm_ratelimit_wait_seconds",
		"time spent waiting for a rate-limit slot, seconds", obs.DurationBuckets)
	r.abandoned = reg.Counter("llm_ratelimit_abandoned_total",
		"rate-limit waits abandoned by context cancellation")
	return r
}

// ModelName implements ChatModel.
func (r *RateLimiter) ModelName() string { return r.inner.ModelName() }

// Pricing implements ChatModel.
func (r *RateLimiter) Pricing() (float64, float64) { return r.inner.Pricing() }

// Chat implements ChatModel, waiting for a send slot first.
func (r *RateLimiter) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	waited, err := r.wait(ctx)
	if waited > 0 {
		r.waitSeconds.Observe(waited.Seconds())
	}
	if err != nil {
		r.abandoned.Inc()
		return nil, err
	}
	return r.inner.Chat(ctx, messages, temperature, n)
}

// Metered is a ChatModel middleware that records every successful call
// into a shared mutex-guarded Meter — the usage/cost accounting view of
// a whole fleet of concurrent pipelines sharing one model. Instrument
// additionally streams the same accounting into a metrics Registry as
// it happens, which is what makes cost observable *during* a run
// instead of after it.
type Metered struct {
	inner ChatModel
	meter *Meter

	// telemetry handles; nil (no-op) until Instrument
	calls            *obs.Counter
	promptTokens     *obs.Counter
	completionTokens *obs.Counter
	tokens           *obs.Counter
	costUSD          *obs.Counter
	latencySeconds   *obs.Histogram
	tokensPerCall    *obs.Histogram

	// costMu orders the cost-counter updates so the registry's
	// llm_cost_usd_total is, at every instant, exactly the meter's
	// CostUSD (summing per-call deltas independently would drift by
	// float rounding).
	costMu   sync.Mutex
	lastCost float64
}

// NewMetered wraps a model with a fresh meter priced from it.
func NewMetered(inner ChatModel) *Metered {
	return &Metered{inner: inner, meter: NewMeter(inner)}
}

// Instrument publishes live usage into the registry and returns the
// receiver for chaining. Counters: llm_calls_total,
// llm_prompt_tokens_total, llm_completion_tokens_total, llm_tokens_total
// and llm_cost_usd_total (always equal to Meter().CostUSD()).
// Histograms: llm_latency_seconds and llm_tokens_per_call.
func (m *Metered) Instrument(reg *obs.Registry) *Metered {
	m.calls = reg.Counter("llm_calls_total", "chat calls recorded")
	m.promptTokens = reg.Counter("llm_prompt_tokens_total", "billed prompt tokens")
	m.completionTokens = reg.Counter("llm_completion_tokens_total", "billed completion tokens")
	m.tokens = reg.Counter("llm_tokens_total", "billed tokens, prompt + completion")
	m.costUSD = reg.Counter("llm_cost_usd_total", "accumulated dollar cost")
	m.latencySeconds = reg.Histogram("llm_latency_seconds",
		"chat call latency, seconds", obs.DurationBuckets)
	m.tokensPerCall = reg.Histogram("llm_tokens_per_call",
		"billed tokens per chat call", obs.TokenBuckets)
	return m
}

// Meter returns the shared meter.
func (m *Metered) Meter() *Meter { return m.meter }

// Stats returns a consistent snapshot of the accumulated usage — the
// public accessor pairing with Cache.Stats.
func (m *Metered) Stats() MeterSnapshot { return m.meter.Snapshot() }

// ModelName implements ChatModel.
func (m *Metered) ModelName() string { return m.inner.ModelName() }

// Pricing implements ChatModel.
func (m *Metered) Pricing() (float64, float64) { return m.inner.Pricing() }

// Chat implements ChatModel, recording usage of successful calls.
func (m *Metered) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	start := time.Now()
	responses, err := m.inner.Chat(ctx, messages, temperature, n)
	if err != nil {
		return responses, err
	}
	m.meter.Record(responses)
	m.latencySeconds.Observe(time.Since(start).Seconds())
	m.calls.Inc()
	var prompt, completion int
	for _, r := range responses {
		prompt += r.Usage.PromptTokens
		completion += r.Usage.CompletionTokens
	}
	m.promptTokens.AddInt(prompt)
	m.completionTokens.AddInt(completion)
	m.tokens.AddInt(prompt + completion)
	m.tokensPerCall.Observe(float64(prompt + completion))
	if m.costUSD != nil {
		m.costMu.Lock()
		cost := m.meter.CostUSD()
		m.costUSD.Add(cost - m.lastCost)
		m.lastCost = cost
		m.costMu.Unlock()
	}
	return responses, nil
}
