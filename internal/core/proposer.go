package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/par"
	"datasculpt/internal/sampler"
	"datasculpt/internal/textproc"
)

// Proposer is the headless incremental form of the pipeline's query
// loop, built for the online growth daemon: instead of running
// cfg.Iterations in one call, the caller drives one Step at a time and
// journals each resulting ProposalStep. A killed caller resumes by
// constructing a fresh Proposer over the same dataset/config and
// Replaying the journaled steps — no LLM calls — before continuing
// with live Steps, and the final LF set is byte-identical to the
// uninterrupted run.
//
// That replay contract is why every per-iteration random choice is
// derived, not threaded: Step i draws from an rng seeded by (Seed, i)
// and prompts a Simulated seeded by (Seed, i), so iteration i's outcome
// never depends on how many earlier iterations ran live versus
// replayed. Model-driven samplers (sampler.NeedsPosteriors) feed on
// interim posteriors that only exist on live runs, so NewProposer
// rejects them. The step itself is the pipeline's: Step drives the
// same loop.ask as RunContext, with no spans and no abort on a failed
// LLM call.

// ProposalStep is the journaled outcome of one proposer iteration —
// everything Replay needs to reproduce its effect without an LLM call.
type ProposalStep struct {
	// Iter is the iteration index the step was produced at.
	Iter int `json:"iter"`
	// QueryID is the sampled train-example id (-1 when the unlabeled
	// pool was exhausted; Exhausted is then set).
	QueryID int `json:"query_id"`
	// Keywords and Label are the parsed LLM proposal offered to the
	// filter chain (empty on failed or unparseable iterations).
	Keywords []string `json:"keywords,omitempty"`
	Label    int      `json:"label,omitempty"`
	// Kept counts the keywords the filter chain accepted.
	Kept int `json:"kept"`
	// ParseFailed marks an iteration whose LLM response the parser
	// rejected; Failed marks one whose LLM call failed after retries.
	ParseFailed bool `json:"parse_failed,omitempty"`
	Failed      bool `json:"failed,omitempty"`
	// Exhausted marks the pool-exhausted sentinel step: no further
	// iteration can propose anything.
	Exhausted bool `json:"exhausted,omitempty"`
	// Calls/PromptTokens/CompletionTokens/CostUSD account the
	// iteration's LLM spend, so a resumed run reports the same totals.
	Calls            int     `json:"calls"`
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	CostUSD          float64 `json:"cost_usd"`
}

// ProposerOptions tunes a Proposer beyond its pipeline Config.
type ProposerOptions struct {
	// WrapModel, when non-nil, wraps iteration i's endpoint — a fresh
	// llm.Simulated seeded from (cfg.Seed, i), fresh per iteration
	// because the Simulated's rng advances per call and replayed
	// iterations make no calls — before cfg.WrapModel does. It is the
	// injection point for middleware whose own randomness must derive
	// from the iteration, such as the growth loop's fault injection.
	WrapModel func(iter int, m llm.ChatModel) llm.ChatModel
	// Frozen is the parent LF set the proposer extends: seeded into the
	// filter chain unfiltered (see lf.FilterChain.Seed) and counted
	// apart from the newly proposed LFs.
	Frozen []lf.LabelFunction
	// Prefix, when set, is the fixed head of the train split: d.Train
	// must start with its examples. Its ids are marked as already used,
	// so sampling draws only from the tail, and the proposer hashes and
	// indexes only the tail. The growth loop builds one Prefix over the
	// base training split and puts each cycle's captured corpus after it.
	Prefix *Prefix
}

// Prefix is the part of a growing train split that every proposer over
// it shares: its examples, their TF part (textproc.HashTF), their train
// index, the valid split's index and the base columns of the frozen LF
// set. NewProposer extends these with the split's tail instead of
// rebuilding them, and every output is bit-identical to a proposer
// built without a prefix. Everything but the column cache is read-only
// once built; the cache is guarded by its own mutex, so proposers may
// share a prefix.
type Prefix struct {
	train   []*dataset.Example
	tf      *textproc.TF
	trainIx *lf.Index
	validIx *lf.Index

	// mu guards cols: the column over train of each LF the last
	// NewProposer seeded as frozen, keyed by LF name.
	mu   sync.Mutex
	cols map[string]lf.Column
}

// NewPrefix builds the prefix of train, with valid as the valid split,
// for cfg's feature width. It keeps train's examples as given (the
// growth loop passes label-stripped copies) and tokenizes them.
func NewPrefix(train, valid []*dataset.Example, cfg Config) (*Prefix, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &Prefix{
		train:   train,
		trainIx: lf.NewIndex(train),
		tf:      textproc.HashTF(cfg.FeatureDim, cfg.Parallelism, dataset.FeatureCorpus(train)),
		validIx: lf.NewIndex(valid),
	}, nil
}

// Examples returns the prefix's train examples, the head of every split
// a proposer over the prefix runs on. They must not be modified.
func (p *Prefix) Examples() []*dataset.Example { return p.train }

// columns returns each of lfs' column over ix, an extension of the
// prefix's train index: the cached column over the prefix followed by
// ix's tail, which is all this evaluates for an LF seen before. The
// cache then holds exactly lfs. The returned columns may share the
// cache's storage and must not be mutated.
func (p *Prefix) columns(ix *lf.Index, lfs []lf.LabelFunction, workers int) []lf.Column {
	names := make([]string, len(lfs))
	base := make([]lf.Column, len(lfs))
	p.mu.Lock()
	cols := make(map[string]lf.Column, len(lfs))
	var missing []int
	for t, f := range lfs {
		names[t] = f.Name()
		c, ok := p.cols[names[t]]
		if !ok {
			missing = append(missing, t)
		}
		base[t] = c
	}
	par.For(workers, len(missing), 2, func(k int) {
		t := missing[k]
		ids, votes := p.trainIx.Eval(lfs[t])
		base[t] = lf.Column{IDs: ids, Votes: votes}
	})
	for t, name := range names {
		cols[name] = base[t]
	}
	p.cols = cols
	p.mu.Unlock()

	n := len(p.train)
	out := make([]lf.Column, len(lfs))
	par.For(workers, len(lfs), 2, func(t int) {
		ids, votes := ix.EvalFrom(lfs[t], n)
		out[t] = lf.Column{
			IDs:   append(slices.Clip(base[t].IDs), ids...),
			Votes: append(slices.Clip(base[t].Votes), votes...),
		}
	})
	return out
}

// Proposer runs the select→prompt→parse→filter loop one resumable step
// at a time. Not safe for concurrent use.
type Proposer struct {
	*loop
	opts   ProposerOptions
	frozen int
	usage  llm.MeterSnapshot
}

// NewProposer builds a proposer over d with cfg's pipeline settings.
// The dataset must validate and the sampler must be replay-safe.
func NewProposer(d *dataset.Dataset, cfg Config, opts ProposerOptions) (*Proposer, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if sampler.NeedsPosteriors(cfg.Sampler) {
		return nil, fmt.Errorf("core: sampler %q needs interim posteriors and cannot replay deterministically", cfg.Sampler)
	}
	l, err := newLoop(d, cfg, nil, opts.Prefix)
	if err != nil {
		return nil, err
	}
	if opts.Prefix == nil {
		l.chain.Seed(opts.Frozen, nil)
	} else {
		// The filter chain and the vote matrix share the frozen columns,
		// so each frozen LF is evaluated over the tail once.
		cols := opts.Prefix.columns(l.ev.trainIx, opts.Frozen, cfg.Parallelism)
		l.chain.Seed(opts.Frozen, cols)
		l.ev.vm = lf.NewVoteMatrix(l.ev.trainIx.Size())
		l.ev.vm.AppendColumns(opts.Frozen, cols)
		for i := range opts.Prefix.train {
			l.state.Used[i] = true
		}
	}
	return &Proposer{loop: l, opts: opts, frozen: len(l.chain.Accepted())}, nil
}

// iterRNG derives iteration i's rng: a fixed function of (Seed, i), so
// the draw is identical whether the iteration runs first, last, or
// after a resume.
func (p *Proposer) iterRNG(iter int) *rand.Rand {
	return rand.New(rand.NewSource(p.cfg.Seed + 7919*int64(iter+1)))
}

// iterModel builds iteration i's endpoint: the per-iteration Simulated,
// wrapped by opts.WrapModel and then cfg.WrapModel.
func (p *Proposer) iterModel(iter int) (llm.ChatModel, error) {
	sim, err := llm.NewSimulated(p.cfg.Model, p.d, p.cfg.Seed+101+1000003*int64(iter))
	if err != nil {
		return nil, err
	}
	var m llm.ChatModel = sim
	if p.opts.WrapModel != nil {
		m = p.opts.WrapModel(iter, m)
	}
	if p.cfg.WrapModel != nil {
		m = p.cfg.WrapModel(m)
	}
	return m, nil
}

// add accumulates one step's LLM spend into the proposer's totals.
func (p *Proposer) add(st *ProposalStep) {
	p.usage.Calls += st.Calls
	p.usage.PromptTokens += st.PromptTokens
	p.usage.CompletionTokens += st.CompletionTokens
	p.usage.CostUSD += st.CostUSD
}

// Step runs one live iteration: sample a query, prompt the model, parse
// and filter the proposal. The returned step is the journal record; an
// error is returned only for aborts (context cancellation, model
// construction failure) — an LLM call that fails after retries is a
// recorded degraded step, because the growth daemon's budget, unlike a
// paper run, must survive flaky endpoints.
func (p *Proposer) Step(ctx context.Context, iter int) (*ProposalStep, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: proposer iteration %d: %w", iter, err)
	}
	st := &ProposalStep{Iter: iter, QueryID: p.next(noSpan, p.iterRNG(iter))}
	if st.QueryID < 0 {
		st.Exhausted = true
		return st, nil
	}
	model, err := p.iterModel(iter)
	if err != nil {
		return nil, fmt.Errorf("core: proposer iteration %d: %w", iter, err)
	}
	meter := llm.NewMeter(model)
	a := p.ask(ctx, noSpan, noSpan, model, meter, p.d.Train[st.QueryID])
	if a.err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: proposer iteration %d: %w", iter, a.err)
		}
		st.Failed = true
		p.failedIterations++
		return st, nil
	}
	snap := meter.Snapshot()
	st.Calls, st.PromptTokens = snap.Calls, snap.PromptTokens
	st.CompletionTokens, st.CostUSD = snap.CompletionTokens, snap.CostUSD
	p.add(st)
	if a.parseErr != nil {
		st.ParseFailed = true
		p.parseFailures++
		return st, nil
	}
	st.Keywords, st.Label, st.Kept = a.parsed.Keywords, a.parsed.Label, a.kept
	return st, nil
}

// Replay applies a journaled step without an LLM call: the query id is
// re-marked used and the recorded keywords re-offered to the filter
// chain. The chain is deterministic, so the accepted count must match
// the record — a mismatch means the journal belongs to different state
// (corpus, config, or parent set) and resuming would diverge.
func (p *Proposer) Replay(st *ProposalStep) error {
	if st.Exhausted {
		return nil
	}
	if st.QueryID < 0 || st.QueryID >= len(p.state.Used) {
		return fmt.Errorf("core: replaying iteration %d: query id %d out of range", st.Iter, st.QueryID)
	}
	p.state.Used[st.QueryID] = true
	p.add(st)
	if st.Failed {
		p.failedIterations++
		return nil
	}
	if st.ParseFailed {
		p.parseFailures++
		return nil
	}
	if kept := p.offer(st.Keywords, st.Label); kept != st.Kept {
		return fmt.Errorf("core: replaying iteration %d: filter chain kept %d of %d keywords, journal says %d — state diverged",
			st.Iter, kept, len(st.Keywords), st.Kept)
	}
	return nil
}

// Accepted returns the current LF set: the frozen parent LFs followed
// by every newly accepted proposal, in acceptance order.
func (p *Proposer) Accepted() []lf.LabelFunction { return p.chain.Accepted() }

// NewCount returns how many LFs the loop has accepted beyond the
// frozen parent set.
func (p *Proposer) NewCount() int { return len(p.chain.Accepted()) - p.frozen }

// Evaluate aggregates the current LF set with the label model, trains
// the end model, and returns the full Result (with trained artifacts,
// ready for bundle.New). Its evaluate span nests under sp. Token
// accounting covers live and replayed steps alike.
func (p *Proposer) Evaluate(sp obs.Span) (*Result, error) {
	return p.finish(sp, fmt.Sprintf("datasculpt-%s-grown", p.cfg.Variant), p.usage)
}
