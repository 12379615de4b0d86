package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
)

func proposerDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Load("youtube", 17, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func proposerConfig() Config {
	cfg := DefaultConfig(VariantBase)
	cfg.Seed = 17
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	cfg.Parallelism = 1
	return cfg
}

func runSteps(t *testing.T, p *Proposer, from, to int) []*ProposalStep {
	t.Helper()
	var steps []*ProposalStep
	for it := from; it < to; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, st)
		if st.Exhausted {
			break
		}
	}
	return steps
}

func lfNames(lfs []lf.LabelFunction) []string {
	names := make([]string, len(lfs))
	for i, f := range lfs {
		names[i] = f.Name()
	}
	return names
}

// TestProposerReplayEquivalence is the resume contract: journal k live
// steps, rebuild the proposer, replay the journal, continue live —
// the LF set, token totals, and evaluation must match the
// uninterrupted run exactly, for every split point.
func TestProposerReplayEquivalence(t *testing.T) {
	d := proposerDataset(t)
	cfg := proposerConfig()
	const budget = 8

	ref, err := NewProposer(d, cfg, ProposerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refSteps := runSteps(t, ref, 0, budget)
	refRes, err := ref.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	refNames := lfNames(ref.Accepted())
	if len(refNames) == 0 {
		t.Fatal("reference run accepted no LFs; test needs a productive config")
	}

	for split := 0; split <= len(refSteps); split++ {
		p, err := NewProposer(d, cfg, ProposerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range refSteps[:split] {
			if err := p.Replay(st); err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
		}
		live := runSteps(t, p, split, budget)
		for i, st := range live {
			want := refSteps[split+i]
			if st.QueryID != want.QueryID || st.Kept != want.Kept || st.Label != want.Label ||
				st.PromptTokens != want.PromptTokens || st.CompletionTokens != want.CompletionTokens {
				t.Fatalf("split %d: step %d diverged: got %+v want %+v", split, st.Iter, st, want)
			}
		}
		names := lfNames(p.Accepted())
		if len(names) != len(refNames) {
			t.Fatalf("split %d: %d LFs, want %d", split, len(names), len(refNames))
		}
		for i := range names {
			if names[i] != refNames[i] {
				t.Fatalf("split %d: LF %d is %q, want %q", split, i, names[i], refNames[i])
			}
		}
		res, err := p.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if res.EndMetric != refRes.EndMetric || res.NumLFs != refRes.NumLFs ||
			res.Calls != refRes.Calls || res.PromptTokens != refRes.PromptTokens ||
			res.CompletionTokens != refRes.CompletionTokens ||
			math.Abs(res.CostUSD-refRes.CostUSD) > 1e-12 {
			t.Fatalf("split %d: result diverged: got metric=%v lfs=%d calls=%d, want metric=%v lfs=%d calls=%d",
				split, res.EndMetric, res.NumLFs, res.Calls, refRes.EndMetric, refRes.NumLFs, refRes.Calls)
		}
		p.Close()
	}
}

// TestProposerFrozenSeedAndPool checks the growth-loop wiring: frozen
// parent LFs bypass the filters but block re-proposal, and the query
// pool start keeps sampling out of the base split.
func TestProposerFrozenSeedAndPool(t *testing.T) {
	d := proposerDataset(t)
	cfg := proposerConfig()

	first, err := NewProposer(d, cfg, ProposerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	runSteps(t, first, 0, 6)
	frozen := append([]lf.LabelFunction(nil), first.Accepted()...)
	if len(frozen) == 0 {
		t.Fatal("first pass accepted no LFs")
	}

	poolStart := len(d.Train) / 2
	p, err := NewProposer(d, cfg, ProposerOptions{Frozen: frozen, QueryPoolStart: poolStart})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := len(p.Accepted()); got != len(frozen) {
		t.Fatalf("seeded chain has %d LFs, want %d", got, len(frozen))
	}
	if p.NewCount() != 0 {
		t.Fatalf("NewCount = %d before any step", p.NewCount())
	}
	steps := runSteps(t, p, 0, 6)
	for _, st := range steps {
		if st.QueryID >= 0 && st.QueryID < poolStart {
			t.Fatalf("sampled query %d below pool start %d", st.QueryID, poolStart)
		}
	}
	names := make(map[string]bool, len(frozen))
	for _, f := range frozen {
		names[f.Name()] = true
	}
	for _, f := range p.Accepted()[len(frozen):] {
		if names[f.Name()] {
			t.Fatalf("frozen LF %q re-accepted", f.Name())
		}
	}
	if p.NewCount() != len(p.Accepted())-len(frozen) {
		t.Fatalf("NewCount = %d, want %d", p.NewCount(), len(p.Accepted())-len(frozen))
	}
}

// TestProposerRejectsModelDrivenSamplers pins the replay-safety guard.
func TestProposerRejectsModelDrivenSamplers(t *testing.T) {
	d := proposerDataset(t)
	for _, name := range []string{"uncertain", "qbc"} {
		cfg := proposerConfig()
		cfg.Sampler = name
		if _, err := NewProposer(d, cfg, ProposerOptions{}); err == nil {
			t.Errorf("sampler %q must be rejected", name)
		}
	}
}

// TestProposerExhaustion: a pool smaller than the budget ends with an
// exhausted sentinel step, and replaying it is a no-op.
func TestProposerExhaustion(t *testing.T) {
	d := proposerDataset(t)
	cfg := proposerConfig()
	poolStart := len(d.Train) - 2
	p, err := NewProposer(d, cfg, ProposerOptions{QueryPoolStart: poolStart})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var exhausted *ProposalStep
	for it := 0; it < 10; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			t.Fatal(err)
		}
		if st.Exhausted {
			exhausted = st
			break
		}
	}
	if exhausted == nil {
		t.Fatal("pool of 2 never exhausted within 10 steps")
	}
	if exhausted.QueryID != -1 {
		t.Fatalf("exhausted step has query id %d", exhausted.QueryID)
	}
	if err := p.Replay(exhausted); err != nil {
		t.Fatalf("replaying exhausted sentinel: %v", err)
	}
}

// tagModel marks an endpoint as having passed through a wrap hook.
type tagModel struct {
	llm.ChatModel
	tag string
}

// TestProposerWrapModelHook: ProposerOptions.WrapModel sees each
// iteration's own Simulated with its index, runs before cfg.WrapModel,
// and a pass-through hook leaves every step unchanged — the growth
// daemon's fault injection plugs in here without rebuilding the
// endpoint itself.
func TestProposerWrapModelHook(t *testing.T) {
	d := proposerDataset(t)
	cfg := proposerConfig()
	plain, err := NewProposer(d, cfg, ProposerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := runSteps(t, plain, 0, 4)

	var iters []int
	cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel {
		if tm, ok := m.(tagModel); !ok || tm.tag != "iter" {
			t.Errorf("cfg.WrapModel got %T, want the opts.WrapModel result", m)
		}
		return m
	}
	p, err := NewProposer(d, cfg, ProposerOptions{WrapModel: func(iter int, m llm.ChatModel) llm.ChatModel {
		if _, ok := m.(*llm.Simulated); !ok {
			t.Errorf("opts.WrapModel got %T, want the iteration's *llm.Simulated", m)
		}
		iters = append(iters, iter)
		return tagModel{ChatModel: m, tag: "iter"}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := runSteps(t, p, 0, 4)
	if fmt.Sprint(iters) != "[0 1 2 3]" {
		t.Errorf("hook saw iterations %v, want [0 1 2 3]", iters)
	}
	for i := range want {
		if fmt.Sprintf("%+v", *got[i]) != fmt.Sprintf("%+v", *want[i]) {
			t.Errorf("step %d: %+v with a pass-through hook, %+v without", i, *got[i], *want[i])
		}
	}
}
