package core

import (
	"context"
	"fmt"
	"math/rand"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/prompt"
	"datasculpt/internal/sampler"
	"datasculpt/internal/textproc"
)

// loop is the state of the paper's query loop (Figure 1): the fitted
// featurizer behind the evaluator, the filter chain, the demonstration
// selector, the query sampler and the prompt style. RunContext, the
// growth Proposer and the revision pass all drive it through next, ask
// and offer; what differs between them — rng and model threading, the
// interim refresh, the abort policy, spans — stays with the caller.
type loop struct {
	d     *dataset.Dataset
	cfg   Config
	chain *lf.FilterChain
	state *sampler.State
	smp   sampler.Sampler
	sel   prompt.ExampleSelector
	style prompt.Style
	ev    *evaluator

	parseFailures, failedIterations int
}

// noSpan is the span handed to ask by callers that trace nothing.
var noSpan = obs.NopTracer().StartSpan("")

// newLoop builds the loop state for a normalized cfg over a validated
// d. reg, when non-nil, receives the sampler, KATE and evaluation-engine
// metrics. The caller owns the returned loop's evaluator (ev.close).
func newLoop(d *dataset.Dataset, cfg Config, reg *obs.Registry) (*loop, error) {
	smp, ok := sampler.ByName(cfg.Sampler)
	if !ok {
		return nil, fmt.Errorf("core: unknown sampler %q", cfg.Sampler)
	}
	feat := textproc.NewFeaturizer(cfg.FeatureDim)
	feat.Workers = cfg.Parallelism
	// Samplers that read train vectors or interim posteriors before the
	// aggregate need every train vector early, so the fit hashes the split
	// once and keeps the vectors. Every other run transforms the split
	// only when the aggregate needs it, so the vectors are not held
	// through the query loop.
	var trainVecs []*textproc.SparseVector
	var err error
	if corpus := dataset.FeatureCorpus(d.Train); sampler.NeedsPosteriors(cfg.Sampler) || cfg.Sampler == "coreset" {
		trainVecs, err = feat.FitTransform(corpus)
	} else {
		err = feat.Fit(corpus)
	}
	if err != nil {
		return nil, fmt.Errorf("core: fitting featurizer: %w", err)
	}
	trainIx := lf.NewIndex(d.Train)
	validIx := lf.NewIndex(d.Valid)
	l := &loop{
		d: d, cfg: cfg, smp: smp,
		chain: lf.NewFilterChain(d, cfg.Filters, trainIx, validIx),
		state: &sampler.State{
			Dataset:    d,
			Used:       make([]bool, len(d.Train)),
			TrainIndex: trainIx,
			ValidIndex: validIx,
			Workers:    cfg.Parallelism,
			Metrics:    reg,
		},
		ev: &evaluator{
			d: d, feat: feat, trainIx: trainIx, validIx: validIx, cfg: cfg,
			workers: cfg.Parallelism, em: newEvalMetrics(reg), metrics: reg,
			trainVecs: trainVecs,
		},
	}
	if cfg.usesKATE() {
		l.sel, err = prompt.NewKATEWithOptions(d, feat, prompt.KATEOptions{
			ANNThreshold:        cfg.ANNThreshold,
			CandidateMultiplier: cfg.ANNMultiplier,
			Seed:                cfg.Seed + 31,
			Workers:             cfg.Parallelism,
			Metrics:             reg,
		})
	} else {
		l.sel, err = prompt.NewClassBalanced(d, cfg.Shots, cfg.Seed+7)
	}
	if err != nil {
		return nil, err
	}
	if cfg.usesCoT() {
		l.style = prompt.CoT
	}
	if cfg.Sampler == "coreset" {
		l.state.TrainVecs = trainVecs
	}
	return l, nil
}

// next draws the next query from the sampler and marks it used; -1
// means the unlabeled pool is exhausted.
func (l *loop) next(rng *rand.Rand) int {
	id := l.smp.Next(l.state, rng)
	if id >= 0 {
		l.state.Used[id] = true
	}
	return id
}

// answer is what one ask produced.
type answer struct {
	// err is the Chat error; nothing else is set when it is non-nil.
	err error
	// parsed is the proposal; parseErr is set instead when the parser
	// rejected the responses.
	parsed   *prompt.Parsed
	parseErr error
	// kept counts the keywords the filter chain accepted.
	kept int
	// promptTokens and completionTokens sum the responses' usage.
	promptTokens, completionTokens int
}

// ask takes one query through the loop: retrieve demonstrations,
// render the prompt, call model, parse the responses (one sample
// directly, several by self-consistency) and offer the keywords to the
// filter chain. sel is the caller's open select span, ended once the
// prompt is rendered; the prompt/parse/filter spans and the token and
// candidate attrs go on sp. Callers that trace nothing pass noSpan for
// both. The call's usage is recorded on meter. A failed call or parse is
// only reported: what it costs is the caller's policy.
func (l *loop) ask(ctx context.Context, sp, sel obs.Span, model llm.ChatModel, meter *llm.Meter, query *dataset.Example) answer {
	msgs := prompt.Render(l.style, l.d, l.sel.Select(query, l.cfg.Shots), query)
	sel.End()

	promptSpan := sp.Child("prompt")
	n := l.cfg.samplesPerQuery()
	responses, err := model.Chat(ctx, msgs, l.cfg.Temperature, n)
	if err != nil {
		promptSpan.SetErr(err)
		promptSpan.End()
		sp.SetErr(err)
		return answer{err: err}
	}
	meter.Record(responses)
	var a answer
	for _, r := range responses {
		a.promptTokens += r.Usage.PromptTokens
		a.completionTokens += r.Usage.CompletionTokens
	}
	promptSpan.SetInt("prompt_tokens", int64(a.promptTokens))
	promptSpan.SetInt("completion_tokens", int64(a.completionTokens))
	promptSpan.End()
	sp.SetInt("prompt_tokens", int64(a.promptTokens))
	sp.SetInt("completion_tokens", int64(a.completionTokens))

	parseSpan := sp.Child("parse")
	if n == 1 {
		a.parsed, a.parseErr = prompt.ParseResponse(responses[0].Content)
	} else {
		contents := make([]string, len(responses))
		for i, r := range responses {
			contents[i] = r.Content
		}
		a.parsed, a.parseErr = prompt.SelfConsistency(contents)
	}
	if a.parseErr != nil {
		parseSpan.SetErr(a.parseErr)
		parseSpan.End()
		sp.SetInt("candidates", 0)
		sp.SetInt("kept", 0)
		return a
	}
	parseSpan.End()

	filterSpan := sp.Child("filter")
	a.kept = l.offer(a.parsed.Keywords, a.parsed.Label)
	filterSpan.End()
	sp.SetInt("candidates", int64(len(a.parsed.Keywords)))
	sp.SetInt("kept", int64(a.kept))
	return a
}

// offer hands a proposal's keywords to the filter chain and returns how
// many it accepted.
func (l *loop) offer(keywords []string, label int) int {
	kept := 0
	for _, kw := range keywords {
		if f, _ := l.chain.Offer(kw, label); f != nil {
			kept++
		}
	}
	return kept
}

// finish evaluates the accepted LF set and fills the run bookkeeping
// every caller reports: method, failure counts, filter rejections and
// the LLM usage.
func (l *loop) finish(method string, usage llm.MeterSnapshot) (*Result, error) {
	res, err := l.ev.evaluate(l.chain.Accepted())
	if err != nil {
		return nil, err
	}
	res.Dataset = l.d.Name
	res.Method = method
	res.ParseFailures = l.parseFailures
	res.FailedIterations = l.failedIterations
	res.Rejections = l.chain.Rejections()
	res.Calls = usage.Calls
	res.PromptTokens = usage.PromptTokens
	res.CompletionTokens = usage.CompletionTokens
	res.CostUSD = usage.CostUSD
	return res, nil
}
