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

	"datasculpt/internal/baselines"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
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

// FilterConfig selects which LF filters the pipeline applies.
type FilterConfig = lf.FilterConfig

// ChatModel abstracts an LLM endpoint; set Config.ChatModel to run the
// pipeline on one. Message and Response are the chat request and reply
// types, so a provider client outside this module can implement
// ChatModel.
type (
	ChatModel = llm.ChatModel
	Message   = llm.Message
	Response  = llm.Response
)

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
// cancellation (deadline, Ctrl-C) aborts the run between prompts and
// propagates through the LLM client, so no budget is spent after the
// caller gives up.
func RunContext(ctx context.Context, d *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, d, cfg)
}

// EvaluateLFSet computes LF statistics and trains/evaluates the end model
// for an externally produced LF set (e.g. hand-written LFs).
func EvaluateLFSet(d *Dataset, lfs []LabelFunction, cfg Config) (*Result, error) {
	return core.EvaluateLFSet(d, lfs, cfg)
}

// NewKeywordLF builds a keyword LF after validity checks (1-3 gram).
func NewKeywordLF(phrase string, class int) (*lf.KeywordLF, error) {
	return lf.NewKeywordLF(phrase, class)
}

// NewEntityKeywordLF builds an entity-aware keyword LF for relation
// tasks: the keyword must attach to the target entity pair.
func NewEntityKeywordLF(phrase string, class int) (*lf.EntityKeywordLF, error) {
	return lf.NewEntityKeywordLF(phrase, class)
}

// WrenchLFs reconstructs the WRENCH benchmark's expert LF set for a
// dataset (baseline of Table 2).
func WrenchLFs(d *Dataset) ([]LabelFunction, error) { return baselines.Wrench(d) }

// AnalyzeLFs computes Snorkel-style per-LF diagnostics (coverage,
// overlap, conflict, accuracy) over a split. gold may be nil for
// unlabeled splits.
func AnalyzeLFs(split []*Example, lfs []LabelFunction, gold []int) []lf.Summary {
	return lf.Analyze(lf.BuildVoteMatrix(lf.NewIndex(split), lfs), lfs, gold)
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
// pacing. Set the returned client's PromptPrice and CompletionPrice (per
// 1M tokens) for cost accounting, and its HTTPClient to change the
// default 30 s timeout.
func NewOpenAI(baseURL, apiKey, model string) *llm.OpenAIClient {
	return llm.NewOpenAI(baseURL, apiKey, model)
}

// Sentinel errors returned (wrapped) by ChatModel implementations;
// test with errors.Is. NewRetry retries ErrRateLimited and
// ErrUnavailable and fails fast on everything else.
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
// Meter().
func NewMetered(inner ChatModel) *llm.Metered { return llm.NewMetered(inner) }

// NewRetry wraps a ChatModel with capped, jittered exponential backoff
// on retryable failures (ErrRateLimited, ErrUnavailable), honoring
// provider Retry-After hints and failing fast on everything else: 4
// attempts in all, 500 ms base delay doubled per retry, 30 s cap.
func NewRetry(inner ChatModel) *llm.Retry { return llm.NewRetry(inner) }
