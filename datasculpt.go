// Package datasculpt is the public API of DataSculpt-Go, a reproduction
// of "DataSculpt: Cost-Efficient Label Function Design via Prompting
// Large Language Models" (EDBT 2025).
//
// DataSculpt automates programmatic weak supervision: instead of writing
// label functions (LFs) by hand, it iteratively selects query instances
// from an unlabeled corpus, prompts an LLM with few-shot examples to
// propose keyword-based LFs, filters the proposals for validity, accuracy
// and redundancy, aggregates the surviving LF votes with a generative
// label model, and trains a downstream classifier on the resulting
// probabilistic labels.
//
// The minimal flow:
//
//	d, _ := datasculpt.LoadDataset("youtube", 1, 1.0)
//	cfg := datasculpt.DefaultConfig(datasculpt.VariantSC)
//	res, _ := datasculpt.Run(d, cfg)
//	fmt.Println(res)
//
// The offline substrate — simulated LLM endpoints, synthetic corpora
// matching the paper's datasets, a MeTaL-style label model and a
// logistic-regression end model — is documented in DESIGN.md.
package datasculpt

import (
	"context"
	"io"
	"log/slog"
	"time"

	"datasculpt/internal/baselines"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/experiment"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// Dataset is a labeled/unlabeled corpus with train/valid/test splits.
type Dataset = dataset.Dataset

// Example is one corpus instance.
type Example = dataset.Example

// Config parameterizes a pipeline run; zero values select the paper's
// defaults.
type Config = core.Config

// Result carries the LF statistics, end-model metric and cost accounting
// of one run.
type Result = core.Result

// Variant names a DataSculpt prompting configuration.
type Variant = core.Variant

// The four prompting variants evaluated in the paper.
const (
	VariantBase = core.VariantBase
	VariantCoT  = core.VariantCoT
	VariantSC   = core.VariantSC
	VariantKATE = core.VariantKATE
)

// LabelFunction is a weak supervision source.
type LabelFunction = lf.LabelFunction

// KeywordLF labels a passage by keyword containment; EntityKeywordLF is
// its relation-task extension requiring the keyword to attach to the
// target entity pair.
type (
	KeywordLF       = lf.KeywordLF
	EntityKeywordLF = lf.EntityKeywordLF
)

// FilterConfig selects which LF filters the pipeline applies.
type FilterConfig = lf.FilterConfig

// ChatModel abstracts an LLM endpoint; Simulated is the deterministic
// offline implementation used throughout this repo. Message and
// Response are the chat request/reply types — exported so external
// packages can call Chat and implement ChatModel without reaching into
// internal/.
type (
	ChatModel = llm.ChatModel
	Simulated = llm.Simulated
	Message   = llm.Message
	Response  = llm.Response
)

// ExperimentOptions parameterizes the multi-seed experiment sweeps that
// regenerate the paper's tables and figures.
type ExperimentOptions = experiment.Options

// DatasetNames lists the six benchmark datasets in the paper's order.
func DatasetNames() []string { return dataset.Names() }

// LoadDataset generates the named synthetic dataset. Scale 1 reproduces
// the paper's Table 1 split sizes; smaller scales shrink every split for
// quick experiments.
func LoadDataset(name string, seed int64, scale float64) (*Dataset, error) {
	return dataset.Load(name, seed, scale)
}

// DefaultConfig returns the paper's default configuration for a variant
// (GPT-3.5, 50 iterations, 10 shots, temperature 0.7, random sampling,
// all filters, MeTaL label model).
func DefaultConfig(v Variant) Config { return core.DefaultConfig(v) }

// Run executes the full DataSculpt pipeline on a dataset. It is
// RunContext with context.Background().
func Run(d *Dataset, cfg Config) (*Result, error) { return core.Run(d, cfg) }

// RunContext executes the full DataSculpt pipeline under a context:
// cancellation (deadline, Ctrl-C, first error of a concurrent sweep)
// aborts the run between prompts and propagates through the LLM client,
// so no budget is spent after the caller gives up.
func RunContext(ctx context.Context, d *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, d, cfg)
}

// EvaluateLFSet computes LF statistics and trains/evaluates the end model
// for an externally produced LF set (e.g. hand-written LFs).
func EvaluateLFSet(d *Dataset, lfs []LabelFunction, cfg Config) (*Result, error) {
	return core.EvaluateLFSet(d, lfs, cfg)
}

// NewKeywordLF builds a keyword LF after validity checks (1-3 gram).
func NewKeywordLF(phrase string, class int) (*KeywordLF, error) {
	return lf.NewKeywordLF(phrase, class)
}

// NewEntityKeywordLF builds an entity-aware keyword LF for relation tasks.
func NewEntityKeywordLF(phrase string, class int) (*EntityKeywordLF, error) {
	return lf.NewEntityKeywordLF(phrase, class)
}

// NewSimulatedLLM builds the deterministic simulated chat model for a
// dataset. Model accepts "gpt-3.5", "gpt-4", "llama2-7b", "llama2-13b",
// "llama2-70b" or their full provider identifiers.
func NewSimulatedLLM(model string, d *Dataset, seed int64) (*Simulated, error) {
	return llm.NewSimulated(model, d, seed)
}

// WrenchLFs reconstructs the WRENCH benchmark's expert LF set for a
// dataset (baseline of Table 2).
func WrenchLFs(d *Dataset) ([]LabelFunction, error) { return baselines.Wrench(d) }

// ScriptoriumLFs simulates the ScriptoriumWS code-generation baseline.
// It returns the LF set and a usage meter billing the generation calls.
func ScriptoriumLFs(d *Dataset, model string, seed int64) ([]LabelFunction, *llm.Meter, error) {
	return baselines.Scriptorium(context.Background(), d, model, seed)
}

// PromptedLFs simulates the PromptedLF exhaustive-prompting baseline:
// every train instance is annotated by every template. The returned meter
// records the Θ(n·T) token cost.
func PromptedLFs(d *Dataset, model string, seed int64) ([]LabelFunction, *llm.Meter, error) {
	return baselines.PromptedLF(context.Background(), d, model, seed)
}

// MainResults runs the paper's Table 2 comparison (seven methods × six
// datasets), which also yields the Figure 3/4 cost data. The grid cells
// run over ExperimentOptions.Workers goroutines (default GOMAXPROCS) and
// are byte-identical to a serial (Workers=1) sweep.
func MainResults(o ExperimentOptions) (*experiment.Grid, error) {
	return experiment.MainResultsContext(context.Background(), o)
}

// MainResultsContext is MainResults with cancellation: canceling ctx
// aborts every in-flight cell and returns the context's error.
func MainResultsContext(ctx context.Context, o ExperimentOptions) (*experiment.Grid, error) {
	return experiment.MainResultsContext(ctx, o)
}

// LFSummary is the per-LF diagnostic record of AnalyzeLFs (coverage,
// overlap, conflict, accuracy).
type LFSummary = lf.Summary

// AnalyzeLFs computes Snorkel-style per-LF diagnostics over a split.
// gold may be nil for unlabeled splits.
func AnalyzeLFs(split []*Example, lfs []LabelFunction, gold []int) []LFSummary {
	ix := lf.NewIndex(split)
	vm := lf.BuildVoteMatrix(ix, lfs)
	return lf.Analyze(vm, lfs, gold)
}

// MarshalLFs serializes an LF set as JSON (keyword, entity-keyword and
// disjunction LFs; opaque predicate/annotation LFs are rejected).
func MarshalLFs(lfs []LabelFunction) ([]byte, error) { return lf.MarshalLFs(lfs) }

// UnmarshalLFs decodes an LF set written by MarshalLFs.
func UnmarshalLFs(data []byte) ([]LabelFunction, error) { return lf.UnmarshalLFs(data) }

// LoadDatasetDir reads a dataset from a WRENCH-style JSON directory (see
// internal/dataset.LoadDir for the layout). Datasets loaded from disk
// carry no signal table and therefore need a real ChatModel rather than
// the simulator.
func LoadDatasetDir(dir string) (*Dataset, error) { return dataset.LoadDir(dir) }

// SaveDatasetDir writes a dataset in the same layout LoadDatasetDir reads.
func SaveDatasetDir(d *Dataset, dir string) error { return d.SaveDir(dir) }

// NewOpenAI builds a ChatModel against any OpenAI-compatible
// chat-completions endpoint, so the identical pipeline can run on a real
// provider instead of the offline simulator. Each Chat is one HTTP
// exchange; compose NewRetry and NewRateLimiter over it for retries and
// pacing. Options: WithPricing, WithHTTPClient.
func NewOpenAI(baseURL, apiKey, model string, opts ...llm.Option) *llm.OpenAIClient {
	return llm.NewOpenAI(baseURL, apiKey, model, opts...)
}

// Client construction options, re-exported for NewOpenAI callers.
var (
	// WithPricing sets per-1M-token prompt/completion prices for cost
	// accounting.
	WithPricing = llm.WithPricing
	// WithHTTPClient substitutes the HTTP client (timeouts, proxies, test
	// doubles).
	WithHTTPClient = llm.WithHTTPClient
)

// Sentinel errors returned (wrapped) by ChatModel implementations;
// test with errors.Is.
var (
	// ErrRateLimited marks provider throttling (HTTP 429) or a canceled
	// wait on the client-side rate limiter.
	ErrRateLimited = llm.ErrRateLimited
	// ErrBadResponse marks a malformed or unusable provider reply; not
	// retryable.
	ErrBadResponse = llm.ErrBadResponse
	// ErrUnavailable marks transport failures and 5xx statuses; retryable.
	ErrUnavailable = llm.ErrUnavailable
)

// NewTranscript wraps any ChatModel so every call is appended as a JSON
// line to w — the audit/replay record of a labeling run.
func NewTranscript(inner ChatModel, w io.Writer) *llm.Transcript {
	return llm.NewTranscript(inner, w)
}

// NewCache wraps a ChatModel with a concurrency-safe response cache:
// identical (model, messages, temperature, n) requests are answered once
// and replayed, with single-flight deduplication of concurrent misses.
// Cache hits cost no tokens, which is what makes many-seed sweeps over a
// shared real model affordable.
func NewCache(inner ChatModel) *llm.Cache { return llm.NewCache(inner) }

// NewRateLimiter wraps a ChatModel with a token-bucket QPS bound shared
// by every goroutine using it. burst <= 0 defaults to 1.
func NewRateLimiter(inner ChatModel, qps float64, burst int) *llm.RateLimiter {
	return llm.NewRateLimiter(inner, qps, burst)
}

// NewMetered wraps a ChatModel with a mutex-guarded usage meter that
// aggregates calls, tokens and dollar cost across every caller — the
// spend ledger for a whole concurrent experiment. Read it with
// Metered.Meter().
func NewMetered(inner ChatModel) *llm.Metered { return llm.NewMetered(inner) }

// NewRetry wraps a ChatModel with capped, jittered exponential backoff
// on retryable failures (ErrRateLimited, ErrUnavailable), honoring
// provider Retry-After hints and failing fast on everything else. Tune
// it with WithRetryAttempts, WithRetryBackoff and WithRetryJitter.
func NewRetry(inner ChatModel, opts ...llm.RetryOption) *llm.Retry {
	return llm.NewRetry(inner, opts...)
}

// Retry middleware options, re-exported for NewRetry callers.
var (
	// WithRetryAttempts sets the total attempt budget per call (>= 1).
	WithRetryAttempts = llm.WithRetryAttempts
	// WithRetryBackoff sets the base and maximum backoff delays.
	WithRetryBackoff = llm.WithRetryBackoff
	// WithRetryJitter sets the uniform jitter fraction in [0, 0.99].
	WithRetryJitter = llm.WithRetryJitter
)

// Retryable reports whether an error is transient (wraps ErrRateLimited
// or ErrUnavailable) and therefore worth retrying.
func Retryable(err error) bool { return llm.Retryable(err) }

// RetryAfter extracts a provider-supplied retry delay hint (an
// llm.RetryAfterError anywhere in the chain), if present.
func RetryAfter(err error) (time.Duration, bool) { return llm.RetryAfter(err) }

// NewFaultInjector wraps a ChatModel with deterministic, seed-driven
// fault injection (rate limits, timeouts, truncated responses, garbage
// completions) for chaos-testing retry and degradation paths; rates
// are per-call probabilities and must sum to at most 1.
func NewFaultInjector(inner ChatModel, rates FaultRates, seed int64) *llm.FaultInjector {
	return llm.NewFaultInjector(inner, rates, seed)
}

// Middleware and accounting types, re-exported so callers can hold them
// without importing internal packages.
type (
	// OpenAIClient is the OpenAI-compatible ChatModel.
	OpenAIClient = llm.OpenAIClient
	// Cache is the response cache middleware.
	Cache = llm.Cache
	// RateLimiter is the QPS-bounding middleware.
	RateLimiter = llm.RateLimiter
	// Metered is the usage-metering middleware.
	Metered = llm.Metered
	// Meter accumulates calls, tokens and cost; safe for concurrent use.
	Meter = llm.Meter
	// MeterSnapshot is a consistent point-in-time copy of a Meter.
	MeterSnapshot = llm.MeterSnapshot
	// CacheStats is a consistent point-in-time copy of a Cache's
	// hit/miss/entry counters, read with Cache.Stats.
	CacheStats = llm.CacheStats
	// Retry is the backoff-retry middleware.
	Retry = llm.Retry
	// RetryAfterError carries a provider retry-delay hint; test with
	// errors.As or the RetryAfter helper.
	RetryAfterError = llm.RetryAfterError
	// FaultInjector is the chaos-testing middleware.
	FaultInjector = llm.FaultInjector
	// FaultRates sets per-call fault probabilities for NewFaultInjector.
	FaultRates = llm.FaultRates
)

// Telemetry re-exports. An Obs bundle — tracer, metrics registry and
// slog logger — attached to the context makes RunContext and
// MainResultsContext emit hierarchical spans (run > iteration > stage),
// llm_*/pipeline_*/grid_* metrics and structured logs without any
// signature change; without one, every instrumentation point is a
// zero-allocation no-op. See DESIGN.md §10 for the span and metric
// inventory.
type (
	// Obs bundles the three telemetry pillars; build with NewObs or
	// SetupTelemetry.
	Obs = obs.Obs
	// MetricsRegistry is the concurrency-safe counter/gauge/histogram
	// registry with Prometheus, JSON and expvar exporters.
	MetricsRegistry = obs.Registry
	// TelemetryConfig mirrors the CLI telemetry flags for SetupTelemetry.
	TelemetryConfig = obs.SetupConfig
	// SpanData is one finished trace span, as stored by the memory
	// tracer and written per line by the JSONL tracer.
	SpanData = obs.SpanData
	// Tracer starts root spans; Span is one live span. External code can
	// implement Tracer to route spans into its own tracing system.
	Tracer = obs.Tracer
	Span   = obs.Span
)

// NewJSONLTracer streams one JSON object per finished span per line to
// w; lines are written atomically, so w may be shared by concurrent
// runs.
func NewJSONLTracer(w io.Writer) *obs.JSONLTracer { return obs.NewJSONLTracer(w) }

// NewMemoryTracer records finished spans in memory for inspection —
// the test-friendly sink.
func NewMemoryTracer() *obs.MemoryTracer { return obs.NewMemoryTracer() }

// NewObs assembles a telemetry bundle, substituting no-ops for nil
// fields (a nil registry is valid and disables metrics).
func NewObs(t obs.Tracer, m *MetricsRegistry, l *slog.Logger) *Obs { return obs.New(t, m, l) }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithTelemetry attaches a bundle to a context; instrumented layers
// downstream pick it up automatically.
func WithTelemetry(ctx context.Context, o *Obs) context.Context { return obs.NewContext(ctx, o) }

// SetupTelemetry opens the sinks named by cfg (trace file, metrics
// file, debug server) exactly as the CLI flags do, returning the bundle
// and a cleanup that flushes and closes them.
func SetupTelemetry(cfg TelemetryConfig) (*Obs, func() error, error) { return obs.Setup(cfg) }
