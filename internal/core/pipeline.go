package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"time"

	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/metrics"
	"datasculpt/internal/obs"
	"datasculpt/internal/sampler"
	"datasculpt/internal/textproc"
)

// pipelineMetrics holds the registry handles the run loop updates. The
// handles are resolved once per run; with a nil registry every handle
// is nil and every update is a free no-op.
type pipelineMetrics struct {
	runs              *obs.Counter
	iterations        *obs.Counter
	parseFailures     *obs.Counter
	iterationFailures *obs.Counter
	lfsKept           *obs.Counter
	lfsPerIter        *obs.Histogram
}

func newPipelineMetrics(reg *obs.Registry) pipelineMetrics {
	return pipelineMetrics{
		runs:          reg.Counter("pipeline_runs_total", "pipeline runs started"),
		iterations:    reg.Counter("pipeline_iterations_total", "query iterations executed"),
		parseFailures: reg.Counter("pipeline_parse_failures_total", "LLM responses the parser rejected entirely"),
		iterationFailures: reg.Counter("pipeline_iteration_failures_total",
			"iterations abandoned because the LLM call failed after retries"),
		lfsKept:    reg.Counter("pipeline_lfs_kept_total", "candidate LFs that survived the filter chain"),
		lfsPerIter: reg.Histogram("pipeline_lfs_kept_per_iteration", "LFs kept per query iteration", obs.SmallCountBuckets),
	}
}

// evalMetrics holds the registry handles of the evaluation engine: how
// much work the incremental vote matrix and the EM warm start avoid, and
// wall-clock timers for the stages the Parallelism knob accelerates.
// Like pipelineMetrics, every handle is a free no-op under a nil
// registry.
type evalMetrics struct {
	colsBuilt       *obs.Counter
	colsReused      *obs.Counter
	vmRebuilds      *obs.Counter
	lmFits          *obs.Counter
	warmStarts      *obs.Counter
	emIters         *obs.Histogram
	interimHits     *obs.Counter
	interimFailures *obs.Counter
	trainProba      *obs.Histogram
	interim         *obs.Histogram
	finalEval       *obs.Histogram
}

func newEvalMetrics(reg *obs.Registry) evalMetrics {
	return evalMetrics{
		colsBuilt:  reg.Counter("eval_vote_columns_built_total", "LF vote columns evaluated against the train split"),
		colsReused: reg.Counter("eval_vote_columns_reused_total", "LF vote columns served from the incremental matrix cache"),
		vmRebuilds: reg.Counter("eval_vote_matrix_rebuilds_total",
			"full vote-matrix rebuilds forced by a non-append-only LF set change"),
		lmFits:     reg.Counter("eval_labelmodel_fits_total", "label-model fits executed"),
		warmStarts: reg.Counter("eval_em_warm_starts_total", "label-model fits seeded from the previous fit's parameters"),
		emIters: reg.Histogram("eval_em_iterations", "EM iterations per label-model fit (warm starts shrink this)",
			obs.IterationBuckets),
		interimHits: reg.Counter("eval_interim_cache_hits_total",
			"interim refreshes served from cache because the LF set was unchanged"),
		interimFailures: reg.Counter("eval_interim_failures_total",
			"interim refreshes that failed, degrading model-driven samplers to stale scores"),
		trainProba: reg.Histogram("eval_train_proba_seconds", "train-split aggregation wall clock", obs.DurationBuckets),
		interim:    reg.Histogram("eval_interim_seconds", "interim model refresh wall clock", obs.DurationBuckets),
		finalEval:  reg.Histogram("eval_final_seconds", "final evaluation wall clock", obs.DurationBuckets),
	}
}

// Run executes the full DataSculpt pipeline on one dataset with one
// configuration: the 50-iteration LF-generation loop followed by label
// model aggregation, end-model training and evaluation. It is
// RunContext with context.Background().
func Run(d *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext is Run with cancellation: the ctx is threaded into every
// LLM call and checked between iterations, so a canceled experiment
// stops promptly even mid-loop (and a real endpoint's in-flight HTTP
// request is aborted).
//
// Telemetry: when an obs bundle travels on the ctx (obs.NewContext),
// the run emits a `run` span with one `iteration` child per query
// iteration and per-stage grandchildren (select, prompt, parse, filter,
// interim — plus revise and aggregate under the run span), streams the
// pipeline_* and llm_* metrics into the bundle's registry while the run
// is in flight, and logs structured events through the bundle's logger.
// Without a bundle every instrumentation point is a no-op and the loop
// allocates nothing extra. Callers injecting a pre-instrumented
// cfg.ChatModel should not pass the same registry on the ctx, or LLM
// traffic is double-counted.
func RunContext(ctx context.Context, d *dataset.Dataset, cfg Config) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	o := obs.FromContext(ctx)
	pm := newPipelineMetrics(o.Metrics)
	pm.runs.Inc()
	span := o.StartSpan(ctx, "run")
	span.SetStr("dataset", d.Name)
	span.SetStr("variant", string(cfg.Variant))
	span.SetStr("model", cfg.Model)
	span.SetInt("iterations", int64(cfg.Iterations))
	defer func() {
		if err != nil {
			span.SetErr(err)
		} else if res != nil {
			span.SetInt("lfs_kept", int64(res.NumLFs))
			span.SetInt("prompt_tokens", int64(res.PromptTokens))
			span.SetInt("completion_tokens", int64(res.CompletionTokens))
		}
		span.End()
	}()
	rng := rand.New(rand.NewSource(cfg.Seed))

	model := cfg.ChatModel
	if model == nil {
		sim, err := llm.NewSimulated(cfg.Model, d, cfg.Seed+101)
		if err != nil {
			return nil, err
		}
		model = sim
	}
	if cfg.WrapModel != nil {
		model = cfg.WrapModel(model)
	}
	if o.Metrics != nil {
		// Live llm_* accounting for this run. The wrapper sits above any
		// injected cache middleware, so the registry's token and cost
		// totals stay exactly equal to the usage the Result reports.
		model = llm.NewMetered(model).Instrument(o.Metrics)
	}
	meter := llm.NewMeter(model)

	l, err := newLoop(d, cfg, o.Metrics)
	if err != nil {
		return nil, err
	}
	defer l.ev.close()
	needsInterim := sampler.NeedsPosteriors(cfg.Sampler)
	logDebug := o.Logger.Enabled(ctx, slog.LevelDebug)

	// charge books a failed LLM call — a query iteration's or a revision
	// prompt's — against the failure budget and returns the abort error
	// when the run must stop; what prefixes that error, and event names
	// the warning logged when the budget absorbs the failure instead. A
	// canceled run always aborts and is never counted as degraded.
	charge := func(what, event string, err error, attrs ...slog.Attr) error {
		if ctx.Err() != nil {
			return fmt.Errorf("core: %s: %w", what, err)
		}
		l.failedIterations++
		pm.iterationFailures.Inc()
		budget := cfg.MaxFailedIterations
		if budget == 0 || (budget > 0 && l.failedIterations > budget) {
			return fmt.Errorf("core: %s: %w (%d failed iterations, budget %d)",
				what, err, l.failedIterations, budget)
		}
		o.Logger.LogAttrs(ctx, slog.LevelWarn, event, append(attrs,
			slog.Int("failed_iterations", l.failedIterations),
			slog.String("error", err.Error()))...)
		return nil
	}

	for it := 0; it < cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", it, err)
		}
		itSpan := span.Child("iteration")
		itSpan.SetInt("iteration", int64(it))

		selSpan := itSpan.Child("select")
		id := l.next(rng)
		if id < 0 {
			selSpan.End()
			itSpan.SetStr("stop", "pool exhausted")
			itSpan.End()
			break // pool exhausted
		}
		itSpan.SetInt("query_id", int64(id))
		a := l.ask(ctx, itSpan, selSpan, model, meter, d.Train[id])
		if a.err != nil {
			itSpan.End()
			if err := charge(fmt.Sprintf("iteration %d", it), "iteration failed", a.err,
				slog.Int("iteration", it), slog.Int("query_id", id)); err != nil {
				return nil, err
			}
			continue
		}
		pm.iterations.Inc()
		pm.lfsPerIter.Observe(float64(a.kept))
		if a.parseErr != nil {
			itSpan.End()
			l.parseFailures++
			pm.parseFailures.Inc()
			if logDebug {
				o.Logger.LogAttrs(ctx, slog.LevelDebug, "parse failure",
					slog.Int("iteration", it), slog.Int("query_id", id),
					slog.String("error", a.parseErr.Error()))
			}
			continue
		}
		pm.lfsKept.AddInt(a.kept)

		// Refresh the interim model behind model-driven samplers. A
		// failed refresh degrades the sampler to stale (or no) scores
		// rather than aborting the run, but never silently: the span
		// records the error, the log says which iteration degraded, and
		// eval_interim_failures_total counts it.
		if needsInterim && (it+1)%cfg.UncertainRefreshEvery == 0 {
			interimSpan := itSpan.Child("interim")
			if endProba, lmProba, err := l.ev.interimTrainProba(l.chain.Accepted(), rng); err == nil {
				l.state.SetPosteriors(endProba, lmProba)
			} else {
				interimSpan.SetErr(err)
				l.ev.em.interimFailures.Inc()
				o.Logger.LogAttrs(ctx, slog.LevelWarn, "interim refresh failed",
					slog.Int("iteration", it), slog.Int("query_id", id),
					slog.String("error", err.Error()))
			}
			interimSpan.End()
		}
		itSpan.End()
		if logDebug {
			o.Logger.LogAttrs(ctx, slog.LevelDebug, "iteration",
				slog.Int("iteration", it), slog.Int("query_id", id),
				slog.Int("candidates", len(a.parsed.Keywords)), slog.Int("kept", a.kept),
				slog.Int("prompt_tokens", a.promptTokens), slog.Int("completion_tokens", a.completionTokens))
		}
	}

	if cfg.ReviseRejected {
		reviseSpan := span.Child("revise")
		prompts, added, err := l.revise(ctx, model, meter, rng, func(err error) error {
			return charge("revision pass", "revision failed", err)
		})
		reviseSpan.SetInt("prompts", int64(prompts))
		reviseSpan.SetInt("added", int64(added))
		if err != nil {
			reviseSpan.SetErr(err)
			reviseSpan.End()
			return nil, err
		}
		reviseSpan.End()
	}

	aggSpan := span.Child("aggregate")
	res, err = l.finish(fmt.Sprintf("datasculpt-%s", cfg.Variant), meter.Snapshot())
	if err != nil {
		aggSpan.SetErr(err)
		aggSpan.End()
		return nil, err
	}
	aggSpan.SetInt("num_lfs", int64(res.NumLFs))
	aggSpan.End()
	o.Logger.LogAttrs(ctx, slog.LevelInfo, "run complete",
		slog.String("dataset", res.Dataset), slog.String("method", res.Method),
		slog.Int("lfs", res.NumLFs), slog.String("metric", res.MetricName),
		slog.Float64("value", res.EndMetric), slog.Int("calls", res.Calls),
		slog.Int("tokens", res.TotalTokens()), slog.Float64("cost_usd", res.CostUSD),
		slog.Int("parse_failures", res.ParseFailures),
		slog.Int("failed_iterations", res.FailedIterations))
	return res, nil
}

// EvaluateLFSet computes the Table 2 statistics for an externally
// produced LF set (the WRENCH / ScriptoriumWS / PromptedLF baselines):
// vote-matrix statistics, label-model aggregation, end-model training and
// the test metric. Token accounting is the caller's responsibility.
func EvaluateLFSet(d *dataset.Dataset, lfs []lf.LabelFunction, cfg Config) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	feat := textproc.NewFeaturizer(cfg.FeatureDim)
	feat.Workers = cfg.Parallelism
	if err := feat.Fit(dataset.FeatureCorpus(d.Train)); err != nil {
		return nil, fmt.Errorf("core: fitting featurizer: %w", err)
	}
	ev := &evaluator{
		d: d, feat: feat, trainIx: lf.NewIndex(d.Train), cfg: cfg,
		workers: cfg.Parallelism, em: newEvalMetrics(nil),
	}
	defer ev.close()
	res, err := ev.evaluate(lfs)
	if err != nil {
		return nil, err
	}
	res.Dataset = d.Name
	return res, nil
}

// evaluator holds the shared state for final and interim evaluations.
// It is the pipeline's incremental evaluation engine: the train vote
// matrix is cached and grown append-only (the LF set only ever grows
// during a run), the MeTaL label model warm-starts each fit from the
// previous one, and interim posteriors are reused outright when the LF
// set has not changed since the last refresh.
type evaluator struct {
	d       *dataset.Dataset
	feat    *textproc.Featurizer
	trainIx *lf.Index
	// validIx is the shared validation index the weighted label model
	// measures accuracies against; built lazily when the pipeline did
	// not hand one over (EvaluateLFSet), and reused across every fit.
	validIx *lf.Index
	cfg     Config
	workers int
	em      evalMetrics
	// metrics is the run's registry (nil outside instrumented runs); the
	// spilling vote matrix streams eval_votematrix_spill_* into it.
	metrics *obs.Registry

	trainVecs []*textproc.SparseVector // from newLoop when it ran FitTransform, else built lazily

	// Incremental train vote matrix and the LF names it was built from.
	vm *lf.VoteMatrix
	// prevMetal seeds the next MeTaL fit (nil until the first fit).
	prevMetal *labelmodel.MeTaL
	// Interim cache: posteriors from the last interimTrainProba, valid
	// while the LF set keeps the same length (append-only ⇒ unchanged).
	interimLFs int
	interimEnd [][]float64
	interimLM  [][]float64

	// wrapLabelModel, when non-nil, decorates the label model before use
	// (test hook for counting fits).
	wrapLabelModel func(labelmodel.LabelModel) labelmodel.LabelModel
}

// voteMatrix returns the train vote matrix for lfs, reusing every column
// already evaluated. The cache key is the append-only invariant itself:
// lfs must extend (by name, in order) the set the cached matrix was
// built from. Any other shape — shrunk, reordered, renamed — forces a
// full rebuild, so correctness never depends on the invariant holding.
func (ev *evaluator) voteMatrix(lfs []lf.LabelFunction) *lf.VoteMatrix {
	if ev.vm == nil {
		ev.vm = ev.newVoteMatrix()
	}
	reused := ev.vm.NumLFs()
	prefixOK := len(lfs) >= reused
	if prefixOK {
		names := ev.vm.Names()
		for j := 0; j < reused; j++ {
			if lfs[j].Name() != names[j] {
				prefixOK = false
				break
			}
		}
	}
	if !prefixOK {
		ev.em.vmRebuilds.Inc()
		ev.vm.Close()
		ev.vm = ev.newVoteMatrix()
		ev.vm.AppendLFs(ev.trainIx, lfs, ev.workers)
		ev.em.colsBuilt.AddInt(len(lfs))
		ev.invalidateInterim()
		return ev.vm
	}
	if added := ev.vm.AppendLFs(ev.trainIx, lfs[reused:], ev.workers); added > 0 {
		ev.em.colsBuilt.AddInt(added)
	}
	ev.em.colsReused.AddInt(reused)
	return ev.vm
}

// newVoteMatrix creates an empty train-split matrix, memory-bounded when
// Config.VoteSpillMB is set. A spill-file creation failure falls back to
// the fully resident matrix — correctness never depends on the temp dir.
func (ev *evaluator) newVoteMatrix() *lf.VoteMatrix {
	vm := lf.NewVoteMatrix(ev.trainIx.Size())
	if mb := ev.cfg.VoteSpillMB; mb > 0 {
		_ = vm.EnableSpill(int64(mb)<<20, "", ev.metrics)
	}
	return vm
}

// close releases the vote matrix's spill file, if any.
func (ev *evaluator) close() {
	if ev.vm != nil {
		ev.vm.Close()
	}
}

func (ev *evaluator) invalidateInterim() {
	ev.interimLFs = 0
	ev.interimEnd = nil
	ev.interimLM = nil
}

func (ev *evaluator) trainVectors() []*textproc.SparseVector {
	if ev.trainVecs == nil {
		ev.trainVecs = ev.feat.TransformAll(dataset.FeatureCorpus(ev.d.Train))
	}
	return ev.trainVecs
}

func (ev *evaluator) labelModel(lfs []lf.LabelFunction) (labelmodel.LabelModel, error) {
	switch ev.cfg.LabelModel {
	case "metal":
		return labelmodel.NewMeTaL(), nil
	case "majority":
		return labelmodel.NewMajorityVote(), nil
	case "triplet":
		return labelmodel.NewTriplet(), nil
	case "dawid-skene":
		return labelmodel.NewDawidSkene(), nil
	case "weighted":
		if ev.validIx == nil {
			ev.validIx = lf.NewIndex(ev.d.Valid)
		}
		return labelmodel.NewWeightedVoteFromValidationIndexed(ev.validIx, lfs), nil
	default:
		return nil, fmt.Errorf("core: unknown label model %q", ev.cfg.LabelModel)
	}
}

// trainProba aggregates LF votes over the train split into per-example
// posteriors; uncovered examples get nil. Vote columns come from the
// evaluator's incremental matrix, and a MeTaL label model resumes EM
// from the previous fit's parameters.
func (ev *evaluator) trainProba(lfs []lf.LabelFunction) (*lf.VoteMatrix, [][]float64, error) {
	start := time.Now()
	defer func() { ev.em.trainProba.Observe(time.Since(start).Seconds()) }()
	vm := ev.voteMatrix(lfs)
	if len(lfs) == 0 || vm.TotalCoverage() == 0 {
		return vm, make([][]float64, vm.NumExamples()), nil
	}
	lm, err := ev.labelModel(lfs)
	if err != nil {
		return nil, nil, err
	}
	mt, isMetal := lm.(*labelmodel.MeTaL)
	if isMetal {
		mt.Workers = ev.workers
		if ev.prevMetal != nil {
			mt.WarmStart(ev.prevMetal)
			ev.em.warmStarts.Inc()
		}
	}
	fitter := lm
	if ev.wrapLabelModel != nil {
		fitter = ev.wrapLabelModel(lm)
	}
	ev.em.lmFits.Inc()
	if err := fitter.Fit(vm, ev.d.NumClasses()); err != nil {
		return nil, nil, fmt.Errorf("core: fitting label model: %w", err)
	}
	if isMetal {
		ev.prevMetal = mt
		ev.em.emIters.Observe(float64(mt.EMIterations()))
	}
	return vm, fitter.PredictProba(vm), nil
}

// trainingSet assembles end-model inputs from posteriors, applying the
// default-class rule of paper §3.6 to uncovered instances.
//
// Posteriors are converted to hard argmax targets weighted by the
// posterior confidence rather than fed in as soft distributions. With
// soft targets the optimal logistic-regression logits reproduce the
// label model's uncertainty, which shrinks decision margins and measures
// several points below hard confidence-weighted targets on every dataset
// here; confidence weighting keeps the noise-awareness that soft targets
// were buying.
func (ev *evaluator) trainingSet(proba [][]float64) (X []*textproc.SparseVector, Y [][]float64, weights []float64) {
	k := ev.d.NumClasses()
	vecs := ev.trainVectors()
	// One flat backing array for every one-hot row: the per-example
	// make([]float64, k) calls otherwise dominate this function's
	// allocation profile on the 96k-example splits.
	backing := make([]float64, len(proba)*k)
	nextRow := func() []float64 {
		row := backing[:k:k]
		backing = backing[k:]
		return row
	}
	for i, p := range proba {
		switch {
		case p != nil:
			best := 0
			for c := 1; c < k; c++ {
				if p[c] > p[best] {
					best = c
				}
			}
			oneHot := nextRow()
			oneHot[best] = 1
			X = append(X, vecs[i])
			Y = append(Y, oneHot)
			weights = append(weights, p[best])
		case ev.d.DefaultClass != dataset.NoDefaultClass:
			oneHot := nextRow()
			oneHot[ev.d.DefaultClass] = 1
			X = append(X, vecs[i])
			Y = append(Y, oneHot)
			weights = append(weights, 1)
		}
	}
	if ev.d.Imbalanced {
		// Square-root class rebalancing for the F1-reported datasets:
		// weak supervision reaches the minority class through few LFs, so
		// its gradient mass would otherwise be drowned by the majority
		// class (BERT's pretrained features absorb this in the paper; the
		// TF-IDF substitute needs the nudge).
		counts := make([]float64, k)
		for _, y := range Y {
			counts[metrics.ArgMax(y)]++
		}
		maxCount := 0.0
		for _, c := range counts {
			if c > maxCount {
				maxCount = c
			}
		}
		for i, y := range Y {
			if c := counts[metrics.ArgMax(y)]; c > 0 {
				weights[i] *= math.Sqrt(maxCount / c)
			}
		}
	}
	return X, Y, weights
}

// evaluate produces the final Result for an LF set.
func (ev *evaluator) evaluate(lfs []lf.LabelFunction) (*Result, error) {
	start := time.Now()
	defer func() { ev.em.finalEval.Observe(time.Since(start).Seconds()) }()
	vm, proba, err := ev.trainProba(lfs)
	if err != nil {
		return nil, err
	}
	// All Table 2 vote statistics in one sparse sweep.
	var trainGold []int
	if ev.d.TrainLabeled {
		trainGold = dataset.Labels(ev.d.Train)
	}
	stats := vm.ComputeStats(trainGold, ev.workers)
	res := &Result{
		NumLFs:        len(lfs),
		LFCoverage:    stats.MeanCoverage,
		TotalCoverage: stats.TotalCoverage,
		MetricName:    ev.d.MetricName(),
		LFs:           lfs,
		// prevMetal is the fit trainProba just ran for this same LF set
		// (nil for other label models or an uncovered matrix).
		Artifacts: &Artifacts{Featurizer: ev.feat, LabelModel: ev.prevMetal},
	}
	if ev.d.TrainLabeled {
		res.LFAccuracy, res.LFAccuracyKnown = stats.MeanLFAccuracy, stats.AccuracyKnown
	}

	X, Y, weights := ev.trainingSet(proba)
	gold := dataset.Labels(ev.d.Test)
	var pred []int
	if len(X) == 0 {
		// No supervision at all: predict the default class (or class 0).
		c := ev.d.DefaultClass
		if c == dataset.NoDefaultClass {
			c = 0
		}
		pred = make([]int, len(ev.d.Test))
		for i := range pred {
			pred[i] = c
		}
	} else {
		m, err := endmodel.Train(X, Y, weights, ev.d.NumClasses(), ev.feat.Dim, ev.cfg.EndModel)
		if err != nil {
			return nil, fmt.Errorf("core: training end model: %w", err)
		}
		m.SetParallelism(ev.workers)
		res.Artifacts.EndModel = m
		testX := ev.feat.TransformAll(dataset.FeatureCorpus(ev.d.Test))
		pred = m.Predict(testX)
	}
	if ev.d.Imbalanced {
		res.EndMetric = metrics.BinaryF1(pred, gold)
	} else {
		res.EndMetric = metrics.Accuracy(pred, gold)
	}
	return res, nil
}

// interimTrainCap bounds the examples an interim end model trains on;
// uncertainty estimates do not need the full corpus.
const interimTrainCap = 4000

// interimTrainProba trains a quick end model on the current LF set and
// returns its class probabilities over the full train split together
// with the label model's posteriors, feeding the model-driven samplers
// (uncertainty, QBC). It caps the training subsample and epochs: the
// samplers need rankings, not a polished classifier. The cap draws a
// uniform subsample from the run's rng — a fixed prefix would skew
// uncertainty/QBC scores toward whatever the early train indices cover.
func (ev *evaluator) interimTrainProba(lfs []lf.LabelFunction, rng *rand.Rand) (endProba, lmProba [][]float64, err error) {
	if len(lfs) == 0 {
		return nil, nil, fmt.Errorf("core: no LFs yet")
	}
	// The LF set is append-only within a run, so an unchanged length
	// means an unchanged set: the previous refresh's posteriors are still
	// exact. Skipping the refit also skips its rng subsample draw — the
	// sampler sees identical scores either way.
	if ev.interimEnd != nil && ev.interimLFs == len(lfs) {
		ev.em.interimHits.Inc()
		return ev.interimEnd, ev.interimLM, nil
	}
	start := time.Now()
	defer func() { ev.em.interim.Observe(time.Since(start).Seconds()) }()
	_, lmProba, err = ev.trainProba(lfs)
	if err != nil {
		return nil, nil, err
	}
	X, Y, weights := ev.trainingSet(lmProba)
	if len(X) == 0 {
		return nil, nil, fmt.Errorf("core: no covered instances yet")
	}
	if len(X) > interimTrainCap {
		keep := rng.Perm(len(X))[:interimTrainCap]
		sort.Ints(keep) // keep the original example order, just thinned
		sX := make([]*textproc.SparseVector, interimTrainCap)
		sY := make([][]float64, interimTrainCap)
		sW := make([]float64, interimTrainCap)
		for i, ix := range keep {
			sX[i], sY[i], sW[i] = X[ix], Y[ix], weights[ix]
		}
		X, Y, weights = sX, sY, sW
	}
	cfg := ev.cfg.EndModel
	cfg.Epochs = 2
	m, err := endmodel.Train(X, Y, weights, ev.d.NumClasses(), ev.feat.Dim, cfg)
	if err != nil {
		return nil, nil, err
	}
	m.SetParallelism(ev.workers)
	endProba = m.PredictProbaAll(ev.trainVectors())
	ev.interimLFs = len(lfs)
	ev.interimEnd = endProba
	ev.interimLM = lmProba
	return endProba, lmProba, nil
}
