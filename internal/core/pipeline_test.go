package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// smallRun executes a scaled-down pipeline for tests.
func smallRun(t *testing.T, dsName string, mutate func(*Config)) *Result {
	t.Helper()
	d, err := dataset.Load(dsName, 11, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 20
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Model != "gpt-3.5" || cfg.Variant != VariantBase || cfg.Iterations != 50 ||
		cfg.Shots != 10 || cfg.Temperature != 0.7 || cfg.SCSamples != 10 ||
		cfg.Sampler != "random" || cfg.LabelModel != "metal" {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if !cfg.Filters.UseAccuracy || !cfg.Filters.UseRedundancy {
		t.Error("default filters should all be on")
	}
}

func TestConfigRejectsBadEnums(t *testing.T) {
	bad := Config{Variant: "mystery"}
	if err := bad.Normalize(); err == nil {
		t.Error("unknown variant accepted")
	}
	bad = Config{LabelModel: "oracle"}
	if err := bad.Normalize(); err == nil {
		t.Error("unknown label model accepted")
	}
}

func TestSamplesPerQuery(t *testing.T) {
	for _, v := range []Variant{VariantBase, VariantCoT} {
		cfg := DefaultConfig(v)
		if got := cfg.samplesPerQuery(); got != 1 {
			t.Errorf("%s samples = %d, want 1", v, got)
		}
	}
	for _, v := range []Variant{VariantSC, VariantKATE} {
		cfg := DefaultConfig(v)
		if got := cfg.samplesPerQuery(); got != 10 {
			t.Errorf("%s samples = %d, want 10", v, got)
		}
	}
}

func TestRunBaseYoutube(t *testing.T) {
	res := smallRun(t, "youtube", nil)
	if res.NumLFs == 0 {
		t.Fatal("no LFs generated")
	}
	if !res.LFAccuracyKnown {
		t.Error("LF accuracy should be measurable on labeled youtube train")
	}
	if res.LFAccuracy < 0.5 || res.LFAccuracy > 1 {
		t.Errorf("LF accuracy = %v", res.LFAccuracy)
	}
	if res.TotalCoverage <= 0 || res.TotalCoverage > 1 {
		t.Errorf("total coverage = %v", res.TotalCoverage)
	}
	if res.LFCoverage <= 0 || res.LFCoverage > res.TotalCoverage {
		t.Errorf("per-LF coverage = %v vs total %v", res.LFCoverage, res.TotalCoverage)
	}
	if res.EndMetric < 0.5 {
		t.Errorf("end accuracy = %v, should beat chance", res.EndMetric)
	}
	if res.TotalTokens() <= 0 || res.CostUSD <= 0 || res.Calls == 0 {
		t.Errorf("usage accounting missing: %+v", res)
	}
	if res.MetricName != "accuracy" {
		t.Errorf("metric name = %q", res.MetricName)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := smallRun(t, "youtube", nil)
	b := smallRun(t, "youtube", nil)
	if a.NumLFs != b.NumLFs || a.EndMetric != b.EndMetric || a.TotalTokens() != b.TotalTokens() {
		t.Errorf("nondeterministic run: %v vs %v", a, b)
	}
}

func TestRunSCGeneratesMoreLFs(t *testing.T) {
	base := smallRun(t, "youtube", nil)
	sc := smallRun(t, "youtube", func(c *Config) { c.Variant = VariantSC })
	if sc.NumLFs <= base.NumLFs {
		t.Errorf("SC LFs %d should exceed Base LFs %d (paper Table 2)", sc.NumLFs, base.NumLFs)
	}
	if sc.TotalTokens() <= base.TotalTokens() {
		t.Errorf("SC tokens %d should exceed Base tokens %d (10 samples per query)",
			sc.TotalTokens(), base.TotalTokens())
	}
	if sc.Method != "datasculpt-sc" || base.Method != "datasculpt-base" {
		t.Errorf("method names = %q / %q", sc.Method, base.Method)
	}
}

func TestRunKATE(t *testing.T) {
	res := smallRun(t, "youtube", func(c *Config) { c.Variant = VariantKATE })
	if res.NumLFs == 0 {
		t.Error("KATE variant produced no LFs")
	}
}

func TestRunSpouseDefaultClass(t *testing.T) {
	res := smallRun(t, "spouse", func(c *Config) { c.Iterations = 25 })
	if res.LFAccuracyKnown {
		t.Error("spouse train is unlabeled; LF accuracy must be unknown")
	}
	if res.MetricName != "F1" {
		t.Errorf("spouse metric = %q, want F1", res.MetricName)
	}
	// the default class lets the end model train even at low coverage
	if res.EndMetric < 0 || res.EndMetric > 1 {
		t.Errorf("F1 = %v", res.EndMetric)
	}
}

func TestRunUncertainSampler(t *testing.T) {
	res := smallRun(t, "youtube", func(c *Config) { c.Sampler = "uncertain" })
	if res.NumLFs == 0 {
		t.Error("uncertain sampler run produced no LFs")
	}
}

func TestRunSEUSampler(t *testing.T) {
	res := smallRun(t, "youtube", func(c *Config) { c.Sampler = "seu"; c.Iterations = 10 })
	if res.Calls == 0 {
		t.Error("SEU run made no LLM calls")
	}
}

func TestRunNoAccuracyFilterGrowsLFSet(t *testing.T) {
	all := smallRun(t, "youtube", func(c *Config) { c.Variant = VariantSC })
	noAcc := smallRun(t, "youtube", func(c *Config) {
		c.Variant = VariantSC
		c.Filters = lf.FilterConfig{UseAccuracy: false, UseRedundancy: true}
	})
	if noAcc.NumLFs < all.NumLFs {
		t.Errorf("removing the accuracy filter shrank the LF set: %d < %d", noAcc.NumLFs, all.NumLFs)
	}
}

func TestRunMajorityLabelModel(t *testing.T) {
	res := smallRun(t, "youtube", func(c *Config) { c.LabelModel = "majority" })
	if res.EndMetric < 0.5 {
		t.Errorf("majority label model end metric = %v", res.EndMetric)
	}
}

func TestRunUnknownSampler(t *testing.T) {
	d, err := dataset.Load("youtube", 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Sampler = "psychic"
	if _, err := Run(d, cfg); err == nil {
		t.Error("unknown sampler accepted")
	}
}

func TestEvaluateLFSetExternal(t *testing.T) {
	d, err := dataset.Load("youtube", 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// hand-built expert LFs from the signal table
	var lfs []lf.LabelFunction
	for c := 0; c < d.NumClasses(); c++ {
		for _, sig := range d.Signal.TopByWeight(c, 5) {
			f, err := lf.NewKeywordLF(sig.Phrase, c)
			if err != nil {
				t.Fatal(err)
			}
			lfs = append(lfs, f)
		}
	}
	cfg := DefaultConfig(VariantBase)
	cfg.FeatureDim = 2048
	cfg.Seed = 5
	res, err := EvaluateLFSet(d, lfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLFs != 10 {
		t.Errorf("NumLFs = %d", res.NumLFs)
	}
	if res.EndMetric < 0.5 {
		t.Errorf("expert LF end metric = %v", res.EndMetric)
	}
	if res.LFAccuracy < 0.6 {
		t.Errorf("expert LF accuracy = %v", res.LFAccuracy)
	}
}

func TestEvaluateEmptyLFSet(t *testing.T) {
	d, err := dataset.Load("youtube", 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.FeatureDim = 1024
	res, err := EvaluateLFSet(d, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLFs != 0 || res.TotalCoverage != 0 {
		t.Errorf("empty set stats: %+v", res)
	}
	// constant class-0 predictor: accuracy equals class-0 prevalence
	if res.EndMetric <= 0.2 || res.EndMetric >= 0.8 {
		t.Errorf("constant-predictor accuracy = %v", res.EndMetric)
	}
}

func TestRunWithRevision(t *testing.T) {
	plain := smallRun(t, "youtube", nil)
	revised := smallRun(t, "youtube", func(c *Config) {
		c.ReviseRejected = true
		c.MaxRevisions = 8
	})
	// revision issues extra prompts, so usage must not shrink; the LF set
	// may grow when counterexample prompts surface new keywords
	if revised.Calls < plain.Calls {
		t.Errorf("revision reduced calls: %d < %d", revised.Calls, plain.Calls)
	}
	if revised.NumLFs < plain.NumLFs {
		t.Errorf("revision shrank the LF set: %d < %d", revised.NumLFs, plain.NumLFs)
	}
}

func TestRunBonusTREC(t *testing.T) {
	d, err := dataset.Load("trec", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 25
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLFs == 0 {
		t.Fatal("no LFs on the 6-class bonus dataset")
	}
	if res.EndMetric < 1.0/6+0.05 {
		t.Errorf("trec accuracy = %v, should clearly beat the 1/6 chance rate", res.EndMetric)
	}
}

func TestRunExtendedLabelModels(t *testing.T) {
	for _, lm := range []string{"dawid-skene", "weighted"} {
		res := smallRun(t, "youtube", func(c *Config) { c.LabelModel = lm })
		if res.EndMetric < 0.5 {
			t.Errorf("%s end metric = %v", lm, res.EndMetric)
		}
	}
}

func TestRunExtendedSamplers(t *testing.T) {
	for _, smp := range []string{"qbc", "coreset"} {
		res := smallRun(t, "youtube", func(c *Config) { c.Sampler = smp; c.Iterations = 12 })
		if res.NumLFs == 0 {
			t.Errorf("%s produced no LFs", smp)
		}
	}
}

func TestTripletRejectsMulticlassDataset(t *testing.T) {
	d, err := dataset.Load("agnews", 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.LabelModel = "triplet"
	cfg.Iterations = 5
	cfg.FeatureDim = 1024
	if _, err := Run(d, cfg); err == nil {
		t.Error("triplet label model accepted the 4-class agnews task")
	}
}

func TestRunContextCanceled(t *testing.T) {
	d, err := dataset.Load("youtube", 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, d, DefaultConfig(VariantBase)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v, want context.Canceled", err)
	}
}

// failEveryNth is a ChatModel middleware failing every n-th Chat call
// with a transient error (1-based: n=4 fails calls 4, 8, 12, ...).
type failEveryNth struct {
	inner llm.ChatModel
	n     int
	calls int
}

func (f *failEveryNth) ModelName() string           { return f.inner.ModelName() }
func (f *failEveryNth) Pricing() (float64, float64) { return f.inner.Pricing() }
func (f *failEveryNth) Chat(ctx context.Context, messages []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	f.calls++
	if f.calls%f.n == 0 {
		return nil, fmt.Errorf("%w: synthetic outage", llm.ErrUnavailable)
	}
	return f.inner.Chat(ctx, messages, temperature, n)
}

func TestRunStrictModeAbortsOnLLMFailure(t *testing.T) {
	d, err := dataset.Load("youtube", 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 10
	cfg.Seed = 11
	cfg.FeatureDim = 1024
	cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel { return &failEveryNth{inner: m, n: 3} }
	if _, err := Run(d, cfg); !errors.Is(err, llm.ErrUnavailable) {
		t.Errorf("strict mode returned %v, want ErrUnavailable", err)
	}
}

func TestRunFailureBudgetDegradesGracefully(t *testing.T) {
	res := smallRun(t, "youtube", func(c *Config) {
		c.MaxFailedIterations = UnlimitedFailures
		c.WrapModel = func(m llm.ChatModel) llm.ChatModel { return &failEveryNth{inner: m, n: 4} }
	})
	// 20 iterations, every 4th LLM call fails: 5 abandoned iterations
	if res.FailedIterations != 5 {
		t.Errorf("FailedIterations = %d, want 5", res.FailedIterations)
	}
	// the surviving 15 iterations still produced a usable run
	if res.NumLFs == 0 || res.Calls != 15 {
		t.Errorf("degraded run: %d LFs, %d successful calls (want >0, 15)", res.NumLFs, res.Calls)
	}
	// a finite budget above the failure count behaves identically
	budgeted := smallRun(t, "youtube", func(c *Config) {
		c.MaxFailedIterations = 5
		c.WrapModel = func(m llm.ChatModel) llm.ChatModel { return &failEveryNth{inner: m, n: 4} }
	})
	if budgeted.NumLFs != res.NumLFs || budgeted.EndMetric != res.EndMetric {
		t.Errorf("budget-5 run diverged from unlimited: %v vs %v", budgeted, res)
	}
}

func TestRunFailureBudgetExceededAborts(t *testing.T) {
	d, err := dataset.Load("youtube", 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 20
	cfg.Seed = 11
	cfg.FeatureDim = 1024
	cfg.MaxFailedIterations = 2
	cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel { return &failEveryNth{inner: m, n: 2} }
	_, err = Run(d, cfg)
	if !errors.Is(err, llm.ErrUnavailable) {
		t.Fatalf("exceeded budget returned %v, want ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error does not mention the budget: %v", err)
	}
}

func TestRunWrapModelWithRetryMatchesBaseline(t *testing.T) {
	// A Retry-wrapped flaky endpoint must converge to the same result as
	// the unwrapped run: transient failures are retried, not absorbed
	// into the output.
	baseline := smallRun(t, "youtube", nil)
	wrapped := smallRun(t, "youtube", func(c *Config) {
		c.WrapModel = func(m llm.ChatModel) llm.ChatModel {
			flaky := &failEveryNth{inner: m, n: 5}
			return llm.NewRetry(flaky, llm.WithRetryAttempts(4),
				llm.WithRetryBackoff(time.Microsecond, time.Millisecond))
		}
	})
	if wrapped.NumLFs != baseline.NumLFs || wrapped.EndMetric != baseline.EndMetric {
		t.Errorf("retry-wrapped run diverged: %v vs %v", wrapped, baseline)
	}
	if wrapped.FailedIterations != 0 {
		t.Errorf("FailedIterations = %d, want 0 (retries absorb the faults)", wrapped.FailedIterations)
	}
}

// uselessModel answers every prompt with a well-formed response whose
// keyword never occurs in any corpus, so every candidate LF is filtered
// and the accepted set stays empty.
type uselessModel struct{ inner llm.ChatModel }

func (g uselessModel) ModelName() string           { return g.inner.ModelName() }
func (g uselessModel) Pricing() (float64, float64) { return g.inner.Pricing() }
func (g uselessModel) Chat(ctx context.Context, messages []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	resp, err := g.inner.Chat(ctx, messages, temperature, n)
	for i := range resp {
		resp[i].Content = "Keywords: zzyqqvx\nLabel: 0"
	}
	return resp, err
}

// TestRunInterimFailureRecorded: when the interim refresh behind a
// model-driven sampler cannot run (here: no LF ever survives the
// filters), the failure must be counted in eval_interim_failures_total
// instead of being swallowed — the sampler silently degrading to stale
// scores was a latent bug.
func TestRunInterimFailureRecorded(t *testing.T) {
	d, err := dataset.Load("youtube", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 10
	cfg.Seed = 11
	cfg.FeatureDim = 1024
	cfg.Sampler = "uncertain"
	cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel { return uselessModel{inner: m} }
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.New(nil, reg, nil))
	res, err := RunContext(ctx, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first offer is accepted (inactive on validation = no evidence
	// against it; nothing yet to be redundant with), every repeat is a
	// duplicate — but the lone LF covers nothing, so the refresh cannot
	// train an interim model.
	if res.NumLFs != 1 {
		t.Fatalf("NumLFs = %d, want 1", res.NumLFs)
	}
	if res.TotalCoverage != 0 {
		t.Fatalf("TotalCoverage = %v, want 0", res.TotalCoverage)
	}
	// 10 iterations at the default refresh cadence of 5: two refresh
	// points, both failing with "no covered instances yet".
	if got := reg.CounterValue("eval_interim_failures_total"); got != 2 {
		t.Errorf("eval_interim_failures_total = %v, want 2", got)
	}
}

// TestRunSEUParallelismMatchesSequential extends the determinism hard
// constraint to the memoized SEU scoring engine: a full SEU run with
// Parallelism: N must be bit-identical to Parallelism: 1, including the
// sampled instances behind the LF set.
func TestRunSEUParallelismMatchesSequential(t *testing.T) {
	run := func(parallelism int) *Result {
		return smallRun(t, "youtube", func(c *Config) {
			c.Sampler = "seu"
			c.Parallelism = parallelism
		})
	}
	seq := run(1)
	for _, p := range []int{2, 4} {
		par := run(p)
		if seq.NumLFs != par.NumLFs ||
			seq.EndMetric != par.EndMetric ||
			seq.LFCoverage != par.LFCoverage ||
			seq.TotalCoverage != par.TotalCoverage ||
			seq.TotalTokens() != par.TotalTokens() {
			t.Fatalf("Parallelism %d diverged from sequential:\nseq: %+v\npar: %+v", p, seq, par)
		}
		for i := range seq.LFs {
			if seq.LFs[i].Name() != par.LFs[i].Name() {
				t.Fatalf("Parallelism %d: LF %d is %q, sequential %q",
					p, i, par.LFs[i].Name(), seq.LFs[i].Name())
			}
		}
	}
}

func TestRunWithInjectedChatModel(t *testing.T) {
	// injecting a Simulated with the seed Run would derive itself must
	// reproduce the default run exactly
	baseline := smallRun(t, "youtube", nil)
	d, err := dataset.Load("youtube", 11, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 20
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	sim, err := llm.NewSimulated("gpt-3.5", d, cfg.Seed+101)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChatModel = sim
	injected, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if injected.NumLFs != baseline.NumLFs || injected.EndMetric != baseline.EndMetric ||
		injected.TotalTokens() != baseline.TotalTokens() {
		t.Errorf("injected model diverged: %v vs %v", injected, baseline)
	}
}
