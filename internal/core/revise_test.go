package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// failAfter passes the first n Chat calls through and fails every later
// one; with n at the loop's iteration count only revision prompts fail.
// onFail, when set, runs before each failure, which then returns the
// context's error.
type failAfter struct {
	inner  llm.ChatModel
	n      int
	calls  int
	onFail func()
}

func (f *failAfter) ModelName() string           { return f.inner.ModelName() }
func (f *failAfter) Pricing() (float64, float64) { return f.inner.Pricing() }
func (f *failAfter) Chat(ctx context.Context, messages []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	f.calls++
	if f.calls > f.n {
		if f.onFail != nil {
			f.onFail()
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: synthetic outage", llm.ErrUnavailable)
	}
	return f.inner.Chat(ctx, messages, temperature, n)
}

func reviseDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Load("youtube", 11, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func reviseConfig() Config {
	cfg := DefaultConfig(VariantBase)
	cfg.Iterations = 20
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	cfg.ReviseRejected = true
	cfg.MaxRevisions = 8
	return cfg
}

// TestRunRevisionFailuresChargeBudget: a revision prompt whose LLM call
// fails is charged to the failure budget exactly like a query iteration
// — counted in FailedIterations and pipeline_iteration_failures_total —
// instead of aborting a run whose budget is unlimited and discarding
// every iteration already paid for.
func TestRunRevisionFailuresChargeBudget(t *testing.T) {
	cfg := reviseConfig()
	cfg.MaxFailedIterations = UnlimitedFailures
	var inj *llm.FaultInjector
	cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel {
		inj = llm.NewFaultInjector(m, llm.FaultRates{Timeout: 0.3}, 4)
		return inj
	}
	tracer := obs.NewMemoryTracer()
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.New(tracer, reg, nil))
	res, err := RunContext(ctx, reviseDataset(t), cfg)
	if err != nil {
		t.Fatalf("a failed revision prompt aborted an unlimited-budget run: %v", err)
	}

	loopFailures := 0
	for _, it := range tracer.Named("iteration") {
		if it.Error != "" {
			loopFailures++
		}
	}
	spans := tracer.Named("revise")
	if len(spans) != 1 {
		t.Fatalf("revise spans = %d, want 1", len(spans))
	}
	prompts, _ := spans[0].Int("prompts")
	timeouts := inj.Counts()[llm.FaultTimeout]
	if res.FailedIterations != timeouts {
		t.Errorf("FailedIterations = %d, want every injected timeout (%d)", res.FailedIterations, timeouts)
	}
	if res.FailedIterations <= loopFailures {
		t.Fatalf("no revision prompt failed (%d failures, %d in the loop); the test needs a seed that fails one",
			res.FailedIterations, loopFailures)
	}
	if got := reg.CounterValue("pipeline_iteration_failures_total"); got != float64(res.FailedIterations) {
		t.Errorf("pipeline_iteration_failures_total = %v, want %d", got, res.FailedIterations)
	}
	if want := cfg.Iterations + int(prompts) - timeouts; res.Calls != want {
		t.Errorf("Calls = %d, want %d (%d iterations + %d revision prompts - %d failed)",
			res.Calls, want, cfg.Iterations, prompts, timeouts)
	}
}

// TestRunRevisionFailureAborts: the budget still bounds the revision
// pass — strict mode aborts on the first failed revision prompt, a
// finite budget once it is exceeded, and a canceled context always.
func TestRunRevisionFailureAborts(t *testing.T) {
	d := reviseDataset(t)
	unlimited := reviseConfig()
	unlimited.MaxFailedIterations = UnlimitedFailures
	unlimited.WrapModel = func(m llm.ChatModel) llm.ChatModel { return &failAfter{inner: m, n: unlimited.Iterations} }
	res, err := Run(d, unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedIterations != unlimited.MaxRevisions || res.Calls != unlimited.Iterations {
		t.Fatalf("every revision failing: FailedIterations = %d, Calls = %d, want %d, %d",
			res.FailedIterations, res.Calls, unlimited.MaxRevisions, unlimited.Iterations)
	}

	cases := []struct {
		name   string
		budget int
		cancel bool
		want   error
		msg    string
	}{
		{name: "strict", budget: 0, want: llm.ErrUnavailable, msg: "(1 failed iterations, budget 0)"},
		{name: "budget", budget: 2, want: llm.ErrUnavailable, msg: "(3 failed iterations, budget 2)"},
		{name: "canceled", budget: UnlimitedFailures, cancel: true, want: context.Canceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := reviseConfig()
			cfg.MaxFailedIterations = c.budget
			cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel {
				f := &failAfter{inner: m, n: cfg.Iterations}
				if c.cancel {
					f.onFail = cancel
				}
				return f
			}
			_, err := RunContext(ctx, d, cfg)
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "core: revision pass: ") || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("error %q lacks the revision-pass prefix or %q", err, c.msg)
			}
		})
	}
}
