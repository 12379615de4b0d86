package core

import (
	"context"
	"math"
	"testing"
	"time"

	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// histCount reads the observation count of a scalar histogram.
func histCount(t *testing.T, reg *obs.Registry, name string) int {
	t.Helper()
	h, ok := reg.Snapshot()[name].(obs.HistogramSnapshot)
	if !ok {
		t.Fatalf("%s is not a registered histogram", name)
	}
	return int(h.Count)
}

// seuProbe counts, at each LLM call, whether the SEU scoring batch of
// the iteration's select step scored at least one fresh instance (the
// miss counter moved since the previous call).
type seuProbe struct {
	llm.ChatModel
	reg    *obs.Registry
	misses float64
	scored *int
}

func (p *seuProbe) Chat(ctx context.Context, msgs []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	if m := p.reg.CounterValue("sampler_seu_score_cache_misses_total"); m > p.misses {
		p.misses = m
		*p.scored++
	}
	return p.ChatModel.Chat(ctx, msgs, temperature, n)
}

// TestTimingSeriesCounts pins what the evaluation and sampler timing
// series count over seeded runs on a registry: eval_interim_seconds
// observes once per interim refit (a refresh served from the cache is
// not one), eval_train_proba_seconds once per refit plus the final
// aggregation, and sampler_seu_score_seconds once per scoring batch that
// scored at least one instance.
func TestTimingSeriesCounts(t *testing.T) {
	t.Run("uncertain", func(t *testing.T) {
		d, err := dataset.Load("youtube", 11, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(VariantBase)
		cfg.Iterations = 20
		cfg.Seed = 11
		cfg.FeatureDim = 2048
		cfg.EndModel.Epochs = 3
		cfg.Sampler = "uncertain"
		cfg.UncertainRefreshEvery = 1
		reg, mem := obs.NewRegistry(), obs.NewMemoryTracer()
		if _, err := RunContext(obs.NewContext(context.Background(), obs.New(mem, reg, nil)), d, cfg); err != nil {
			t.Fatal(err)
		}
		if f := reg.CounterValue("eval_interim_failures_total"); f != 0 {
			t.Fatalf("%v interim refreshes failed; the pin needs a run without failures", f)
		}
		hits := int(reg.CounterValue("eval_interim_cache_hits_total"))
		refits := len(mem.Named("interim")) - hits
		if hits == 0 || refits == 0 {
			t.Fatalf("%d refits and %d cache hits; the pin needs both", refits, hits)
		}
		t.Logf("%d refits, %d cache hits", refits, hits)
		if got := histCount(t, reg, "eval_interim_seconds"); got != refits {
			t.Errorf("eval_interim_seconds count = %d, want %d refits (%d cache hits excluded)", got, refits, hits)
		}
		if got := histCount(t, reg, "eval_train_proba_seconds"); got != refits+1 {
			t.Errorf("eval_train_proba_seconds count = %d, want %d refits + 1", got, refits)
		}
	})

	t.Run("seu", func(t *testing.T) {
		d, err := dataset.Load("youtube", 11, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(VariantBase)
		cfg.Iterations = 20
		cfg.Seed = 11
		cfg.FeatureDim = 2048
		cfg.EndModel.Epochs = 3
		cfg.Sampler = "seu"
		reg := obs.NewRegistry()
		scored := 0
		cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel {
			return &seuProbe{ChatModel: m, reg: reg, scored: &scored}
		}
		if _, err := RunContext(obs.NewContext(context.Background(), obs.New(nil, reg, nil)), d, cfg); err != nil {
			t.Fatal(err)
		}
		if scored == 0 || scored == cfg.Iterations {
			t.Fatalf("%d of %d scoring batches scored an instance; the pin needs some that did and some that did not",
				scored, cfg.Iterations)
		}
		t.Logf("%d of %d scoring batches scored an instance", scored, cfg.Iterations)
		if got := histCount(t, reg, "sampler_seu_score_seconds"); got != scored {
			t.Errorf("sampler_seu_score_seconds count = %d, want %d batches that scored an instance", got, scored)
		}
	})
}

// checkStageClock requires stage_seconds to hold, for every span name,
// one observation per recorded span, summing to their End-Start within
// a microsecond.
func checkStageClock(t *testing.T, reg *obs.Registry, spans []obs.SpanData) {
	t.Helper()
	count := make(map[string]uint64)
	sum := make(map[string]time.Duration)
	for _, s := range spans {
		count[s.Name]++
		sum[s.Name] += s.End.Sub(s.Start)
	}
	vec, _ := reg.Snapshot()["stage_seconds"].(map[string]any)
	if len(vec) != len(count) {
		t.Errorf("stage_seconds has %d stages, the trace %d span names", len(vec), len(count))
	}
	for name, n := range count {
		h, _ := vec[`stage="`+name+`"`].(obs.HistogramSnapshot)
		if h.Count != n || math.Abs(h.Sum-sum[name].Seconds()) > 1e-6 {
			t.Errorf("stage_seconds{%s} = %d spans / %vs, the trace %d / %vs", name, h.Count, h.Sum, n, sum[name].Seconds())
		}
	}
}

// TestStageClockMatchesSpans: over the runs.golden configurations,
// traced into memory with a registry, stage_seconds agrees with the
// recorded spans name by name.
func TestStageClockMatchesSpans(t *testing.T) {
	load := goldenLoader(t, nil)
	reg, mem := obs.NewRegistry(), obs.NewMemoryTracer()
	ctx := obs.NewContext(context.Background(), obs.New(mem, reg, nil))
	for _, r := range goldenRuns() {
		if _, err := RunContext(ctx, load(r.dataset, r.scale), r.cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	spans := mem.Spans()
	for _, name := range []string{"run", "select", "interim", "aggregate", "evaluate", "train_proba", "seu_score", "revise"} {
		if len(mem.Named(name)) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	checkStageClock(t, reg, spans)
}
