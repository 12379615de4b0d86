package llm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"datasculpt/internal/obs"
)

// backoffPolicy computes the wait before each retry: capped exponential
// growth with downward jitter, overridden by a provider Retry-After hint
// when one is available. Only the Retry middleware uses it: Retry is
// the one place a ChatModel's transient failures are re-issued.
type backoffPolicy struct {
	base   time.Duration // delay before the first retry
	max    time.Duration // hard cap on any computed or hinted delay
	jitter float64       // fraction of the delay randomized away, in [0,1)
}

// delay returns the wait before retry number `retry` (0-based). hint is
// the provider's Retry-After request (0 when absent) and u a uniform
// draw in [0,1) supplying the jitter. Hinted delays are honored exactly
// (capped at max, no jitter — the provider named a time, not a range).
func (b backoffPolicy) delay(retry int, hint time.Duration, u float64) time.Duration {
	if hint > 0 {
		if hint > b.max {
			return b.max
		}
		return hint
	}
	d := b.base
	for i := 0; i < retry && d < b.max; i++ {
		d *= 2
	}
	if d > b.max || d <= 0 {
		d = b.max
	}
	if b.jitter > 0 {
		d -= time.Duration(b.jitter * u * float64(d))
	}
	return d
}

// jitterMu guards the shared jitter source; backoff draws are rare
// (once per retry) so contention is irrelevant.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func jitterDraw() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRng.Float64()
}

// Retry default tuning.
const (
	defaultRetryAttempts = 4
	defaultRetryBase     = 500 * time.Millisecond
	defaultRetryMax      = 30 * time.Second
	defaultRetryJitter   = 0.2
)

// Retry is a provider-agnostic ChatModel middleware that re-issues
// transient failures — errors wrapping ErrRateLimited or ErrUnavailable
// — with capped exponential backoff plus jitter, honoring RetryAfterError
// hints exactly. Non-retryable failures (ErrBadResponse, context
// cancellation) are returned immediately.
//
// Compose it below the Cache and above the RateLimiter
// (Cache -> Retry -> RateLimiter -> client) so cache misses are retried
// but hits never pay for it, and each attempt waits for a rate slot;
// when a FaultInjector is in the stack, Retry sits above it so injected
// faults exercise this exact loop.
type Retry struct {
	inner    ChatModel
	attempts int
	backoff  backoffPolicy

	// sleep and rnd are swappable for tests.
	sleep func(ctx context.Context, d time.Duration) error
	rnd   func() float64

	// telemetry handles; nil (no-op) until Instrument
	retries   *obs.Counter
	exhausted *obs.Counter
}

// RetryOption configures a Retry middleware at construction.
type RetryOption func(*Retry)

// WithRetryAttempts sets the total attempt budget (first try included;
// values below 1 mean a single attempt, i.e. no retries).
func WithRetryAttempts(n int) RetryOption {
	return func(r *Retry) {
		if n < 1 {
			n = 1
		}
		r.attempts = n
	}
}

// WithRetryBackoff sets the base delay before the first retry and the
// cap every later delay (computed or hinted) is clamped to.
func WithRetryBackoff(base, max time.Duration) RetryOption {
	return func(r *Retry) {
		if base > 0 {
			r.backoff.base = base
		}
		if max > 0 {
			r.backoff.max = max
		}
	}
}

// NewRetry wraps a model with the retry middleware (defaults: 4 total
// attempts, 500ms base delay doubled per retry, 30s cap, 20% jitter).
func NewRetry(inner ChatModel, opts ...RetryOption) *Retry {
	r := &Retry{
		inner:    inner,
		attempts: defaultRetryAttempts,
		backoff: backoffPolicy{
			base:   defaultRetryBase,
			max:    defaultRetryMax,
			jitter: defaultRetryJitter,
		},
		sleep: sleepCtx,
		rnd:   jitterDraw,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Instrument mirrors retry accounting into the registry and returns the
// receiver for chaining: llm_retries_total counts re-issued attempts
// and llm_retries_exhausted_total calls that failed every attempt.
func (r *Retry) Instrument(reg *obs.Registry) *Retry {
	r.retries = reg.Counter("llm_retries_total",
		"chat attempts re-issued after a transient failure")
	r.exhausted = reg.Counter("llm_retries_exhausted_total",
		"chat calls that failed every retry attempt")
	return r
}

// ModelName implements ChatModel.
func (r *Retry) ModelName() string { return r.inner.ModelName() }

// Pricing implements ChatModel.
func (r *Retry) Pricing() (float64, float64) { return r.inner.Pricing() }

// Chat implements ChatModel with transparent retries.
func (r *Retry) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			r.retries.Inc()
			if err := r.sleep(ctx, r.backoff.delay(attempt-1, hint, r.rnd())); err != nil {
				return nil, fmt.Errorf("llm: retry backoff aborted: %w", err)
			}
		}
		responses, err := r.inner.Chat(ctx, messages, temperature, n)
		if err == nil {
			return responses, nil
		}
		lastErr = err
		if !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		hint, _ = RetryAfter(err)
	}
	r.exhausted.Inc()
	return nil, fmt.Errorf("llm: giving up after %d attempts: %w", r.attempts, lastErr)
}
