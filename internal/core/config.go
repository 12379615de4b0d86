// Package core implements the DataSculpt pipeline (Figure 1 of the
// paper): the iterative loop that selects a query instance, retrieves
// in-context examples, prompts the LLM, parses the generated keywords into
// label functions, filters them, and finally aggregates the surviving LF
// set with a label model and trains the downstream classifier.
package core

import (
	"fmt"

	"datasculpt/internal/endmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/par"
)

// Variant names a DataSculpt configuration from the paper's Table 2.
type Variant string

// The four evaluated variants.
const (
	// VariantBase uses the plain few-shot template, one sample per query.
	VariantBase Variant = "base"
	// VariantCoT adds chain-of-thought prompting.
	VariantCoT Variant = "cot"
	// VariantSC adds self-consistency over 10 sampled responses on top of
	// CoT.
	VariantSC Variant = "sc"
	// VariantKATE adds KATE in-context example retrieval on top of SC.
	VariantKATE Variant = "kate"
)

// Variants lists the paper's configurations in table order.
func Variants() []Variant {
	return []Variant{VariantBase, VariantCoT, VariantSC, VariantKATE}
}

// UnlimitedFailures disables the iteration failure budget: the run
// records failed iterations but never aborts because of them.
const UnlimitedFailures = -1

// Config fully parameterizes one pipeline run. Zero values select the
// paper's defaults via Normalize.
type Config struct {
	// Model is the LLM profile name or alias (default "gpt-3.5").
	Model string
	// ChatModel, when non-nil, overrides Model: the run prompts this
	// endpoint instead of constructing a fresh Simulated. It is how a
	// real (or cached / rate-limited / metered) model is injected, and
	// how many concurrent runs share one model — implementations must be
	// concurrency-safe (every llm middleware and the Simulated are).
	ChatModel llm.ChatModel
	// WrapModel, when non-nil, wraps the run's endpoint (the injected
	// ChatModel or the internally constructed Simulated) before any call
	// is made — the middleware injection point for per-run stacks such
	// as llm.NewRetry or a chaos-testing llm.NewFaultInjector, composing
	// with endpoints the run builds itself.
	WrapModel func(llm.ChatModel) llm.ChatModel
	// Variant selects prompting strategy (default VariantBase).
	Variant Variant
	// Iterations is the number of query instances (paper: 50).
	Iterations int
	// Shots is the number of in-context examples (paper: 10).
	Shots int
	// Temperature of LLM sampling (paper: 0.7).
	Temperature float64
	// SCSamples is the sample count for self-consistency variants
	// (paper: 10).
	SCSamples int
	// Sampler is the query-selection strategy: "random" (default),
	// "uncertain", "seu", "qbc" or "coreset".
	Sampler string
	// Filters configures the LF filter chain (default: all filters on).
	Filters lf.FilterConfig
	// LabelModel selects the vote aggregator: "metal" (default),
	// "majority", "triplet", "dawid-skene" or "weighted" (validation-
	// accuracy-weighted vote).
	LabelModel string
	// FeatureDim is the hashed feature width for KATE and the end model.
	FeatureDim int
	// EndModel holds the logistic-regression hyperparameters.
	EndModel endmodel.TrainConfig
	// UncertainRefreshEvery controls how often (in iterations) the interim
	// end model behind uncertainty sampling is retrained (default 5).
	UncertainRefreshEvery int
	// MaxFailedIterations is the graceful-degradation failure budget for
	// the query loop. 0 (the default, paper mode) is strict: the first
	// iteration whose LLM call still fails after any retry middleware
	// aborts the run, exactly as before. n > 0 tolerates up to n failed
	// iterations — each is recorded in Result.FailedIterations and the
	// loop moves on to the next query — aborting only when the budget is
	// exceeded. UnlimitedFailures (-1) never aborts on iteration
	// failures. Context cancellation always aborts regardless.
	MaxFailedIterations int
	// ReviseRejected enables the counterexample-re-prompting revision
	// pass after the main loop (the paper's stated future work; see
	// revise.go). MaxRevisions bounds the extra prompts (default 10).
	ReviseRejected bool
	MaxRevisions   int
	// ANNThreshold is the KATE demonstration-pool size at or above which
	// retrieval goes through the LSH index with exact re-ranking instead
	// of the full cosine scan. 0 selects prompt.DefaultANNThreshold
	// (16384, above every Table-1 validation split, so small corpora stay
	// bit-identical); negative disables ANN retrieval at any size.
	ANNThreshold int
	// ANNMultiplier sizes the LSH shortlist as multiplier × Shots exact-
	// reranked candidates (default prompt.DefaultANNMultiplier, 16).
	ANNMultiplier int
	// VoteSpillMB, when positive, bounds the resident sparse bytes of the
	// train-split vote matrix: columns beyond the budget spill LRU to an
	// unlinked temp file and fault back in transparently
	// (eval_votematrix_spill_* metrics). 0 (default) keeps every column
	// resident. The layout is the same either way, and so are the results.
	VoteSpillMB int
	// Parallelism bounds the worker goroutines the evaluation engine uses
	// for vote-matrix column evaluation, the label model's EM steps,
	// batch featurization and batch prediction. 0 (the default) selects
	// runtime.GOMAXPROCS(0); 1 runs the exact legacy sequential path;
	// negative values are clamped to 1. Results are bit-identical at
	// every setting — parallel sections only write per-index state and
	// all floating-point reductions happen in a fixed order — so this is
	// purely a throughput knob.
	Parallelism int
	// Seed drives every random choice in the run.
	Seed int64
}

// DefaultConfig returns the paper's default configuration for a variant.
func DefaultConfig(v Variant) Config {
	cfg := Config{Variant: v}
	cfg.Normalize()
	return cfg
}

// Normalize fills zero values with the paper's defaults and validates the
// enumerations.
func (c *Config) Normalize() error {
	if c.Model == "" {
		c.Model = "gpt-3.5"
	}
	if c.Variant == "" {
		c.Variant = VariantBase
	}
	switch c.Variant {
	case VariantBase, VariantCoT, VariantSC, VariantKATE:
	default:
		return fmt.Errorf("core: unknown variant %q", c.Variant)
	}
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	if c.Shots <= 0 {
		c.Shots = 10
	}
	if c.Temperature == 0 {
		c.Temperature = 0.7
	}
	if c.SCSamples <= 0 {
		c.SCSamples = 10
	}
	if c.Sampler == "" {
		c.Sampler = "random"
	}
	if c.LabelModel == "" {
		c.LabelModel = "metal"
	}
	switch c.LabelModel {
	case "metal", "majority", "triplet", "dawid-skene", "weighted":
	default:
		return fmt.Errorf("core: unknown label model %q", c.LabelModel)
	}
	if c.Filters == (lf.FilterConfig{}) {
		c.Filters = lf.AllFilters()
	}
	if c.FeatureDim <= 0 {
		c.FeatureDim = 8192
	}
	if c.UncertainRefreshEvery <= 0 {
		c.UncertainRefreshEvery = 5
	}
	if c.MaxRevisions <= 0 {
		c.MaxRevisions = 10
	}
	if c.Parallelism == 0 {
		c.Parallelism = par.DefaultWorkers()
	} else if c.Parallelism < 0 {
		c.Parallelism = 1
	}
	if c.MaxFailedIterations < UnlimitedFailures {
		c.MaxFailedIterations = UnlimitedFailures
	}
	if c.EndModel.Seed == 0 {
		c.EndModel.Seed = c.Seed + 1
	}
	return nil
}

// samplesPerQuery returns how many completions each prompt requests.
func (c *Config) samplesPerQuery() int {
	if c.Variant == VariantSC || c.Variant == VariantKATE {
		return c.SCSamples
	}
	return 1
}

// promptStyle returns whether the variant uses chain-of-thought.
func (c *Config) usesCoT() bool { return c.Variant != VariantBase }

// usesKATE returns whether in-context examples come from KATE retrieval.
func (c *Config) usesKATE() bool { return c.Variant == VariantKATE }
