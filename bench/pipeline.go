package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"time"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/metrics"
	"datasculpt/internal/obs"
)

// pipelineWorkload runs full core.RunContext runs, each on its own
// inputs: run i generates its corpus from opSeed(seed, i) and runs with
// that pipeline seed. The LF set a corpus and seed lead to moves a run's
// time by 15-30%, so a median over runs of one input would measure that
// input more than the pipeline; the corpus is small enough that a run
// takes about half a second and a median is over dozens of inputs.
func pipelineWorkload(name, why string, c corpus, v core.Variant, sampler string) *workload {
	return &workload{name: name, why: why, setup: func(ctx context.Context, e *setupEnv) (instance, error) {
		cfg := core.DefaultConfig(v)
		cfg.Sampler = sampler
		if e.size.iterations > 0 {
			cfg.Iterations = e.size.iterations
		}
		p := &pipelineInst{corpus: c, seed: e.seed, size: e.size, cfg: cfg}
		var err error
		p.d, err = e.generate(c, opSeed(e.seed, 0))
		return p, err
	}}
}

// opSeed is the corpus and pipeline seed of operation i.
func opSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

type pipelineInst struct {
	corpus corpus
	seed   int64
	size   size
	d      *dataset.Dataset // the current operation's corpus
	cfg    core.Config
	reg    *obs.Registry // the traced pass's registry
	last   *core.Result
}

func (p *pipelineInst) measure(ctx context.Context, window time.Duration, ps *pass) error {
	cfg := p.cfg
	var o *obs.Obs
	if ps.mem != nil {
		cfg.WrapModel = chatSpans
		p.reg = obs.NewRegistry()
		o = obs.New(ps.mem, p.reg, nil)
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			// Untimed: the corpus is the operation's input.
			p.d = nil
			runtime.GC()
			d, err := p.size.load(p.corpus, opSeed(p.seed, i))
			if err != nil {
				return err
			}
			p.d = d
		}
		cfg.Seed = opSeed(p.seed, i)
		// Every run starts from a collected heap, so its peak memory and
		// GC work do not depend on where the previous run left off.
		runtime.GC()
		opCtx, op := ps.startOp(ctx)
		if o != nil {
			opCtx = obs.NewContext(opCtx, o)
		}
		t0 := time.Now()
		res, err := core.RunContext(opCtx, p.d, cfg)
		d := time.Since(t0)
		op.End()
		ps.attempted++
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return err
			}
			ps.fail("run %d: %v", i, err)
		default:
			if err := checkRun(p.d, res); err != nil {
				ps.fail("run %d: %v", i, err)
				break
			}
			ps.lat = append(ps.lat, ms(d))
			ps.sigs = append(ps.sigs, digest(res.LFs, res.EndMetric, res.TotalTokens()))
			p.last = res
		}
		if time.Since(start) >= window {
			return nil
		}
	}
}

// checkRun recomputes a run's test metric from the featurizer and end
// model it returned; the two must agree bit for bit.
func checkRun(d *dataset.Dataset, res *core.Result) error {
	a := res.Artifacts
	if len(res.LFs) == 0 || a == nil || a.Featurizer == nil || a.EndModel == nil {
		return fmt.Errorf("no LF set or model returned (%d LFs)", len(res.LFs))
	}
	pred := a.EndModel.Predict(a.Featurizer.TransformAll(dataset.FeatureCorpus(d.Test)))
	gold := dataset.Labels(d.Test)
	want := metrics.Accuracy(pred, gold)
	if d.Imbalanced {
		want = metrics.BinaryF1(pred, gold)
	}
	if math.Float64bits(want) != math.Float64bits(res.EndMetric) {
		return fmt.Errorf("reported test metric %v, its model scores %v", res.EndMetric, want)
	}
	return nil
}

// digest identifies what a pipeline run produced: a hash of its LF
// names, its test metric (formatted to round-trip, so equal digests
// mean equal bits) and the LLM tokens it spent.
func digest(lfs []lf.LabelFunction, endMetric float64, tokens int) string {
	h := fnv.New64a()
	for _, f := range lfs {
		fmt.Fprintf(h, "%s\n", f.Name())
	}
	return fmt.Sprintf("lfs=%016x end_metric=%s tokens=%d", h.Sum64(), strconv.FormatFloat(endMetric, 'g', -1, 64), tokens)
}

func (p *pipelineInst) layers(ps *pass, a spanSums, m map[string]float64) {
	ops := float64(len(ps.lat))
	if ops == 0 {
		return
	}
	spans := ps.mem.Spans()
	offered := float64(attrSum(spans, "iteration", "candidates"))
	kept := float64(attrSum(spans, "iteration", "kept"))
	m["lf.offered"], m["lf.kept"] = offered/ops, kept/ops
	if offered > 0 {
		m["lf.kept_ratio"] = kept / offered
	}
	snap := p.reg.Snapshot()
	hist := func(name string) obs.HistogramSnapshot {
		h, _ := snap[name].(obs.HistogramSnapshot)
		return h
	}
	counter := func(name string) float64 { return p.reg.CounterValue(name) / ops }
	pct := func(s float64) float64 { return share(time.Duration(s*float64(time.Second)), a.total["bench.op"]) }
	m["eval.interim_refits"] = float64(hist("eval_interim_seconds").Count) / ops
	m["eval.interim_cache_hits"] = counter("eval_interim_cache_hits_total")
	m["eval.labelmodel_fits"] = counter("eval_labelmodel_fits_total")
	m["eval.vote_columns_built"] = counter("eval_vote_columns_built_total")
	m["eval.vote_columns_reused"] = counter("eval_vote_columns_reused_total")
	if em := hist("eval_em_iterations"); em.Count > 0 {
		m["eval.em_iterations_mean"] = em.Sum / float64(em.Count)
	}
	m["eval.train_proba_share"] = pct(hist("eval_train_proba_seconds").Sum)
	m["sampler.seu_score_share"] = pct(hist("sampler_seu_score_seconds").Sum)
	hits := p.reg.CounterValue("sampler_seu_score_cache_hits_total")
	if lookups := hits + p.reg.CounterValue("sampler_seu_score_cache_misses_total"); lookups > 0 {
		m["sampler.seu_cache_hit_ratio"] = hits / lookups
	}
	if p.last != nil {
		m["quality.end_metric"] = p.last.EndMetric
	}
}

func (p *pipelineInst) hotPath(*pass) hotPath {
	h := hotPath{texts: dataset.Texts(p.d.Test), batch: 64}
	if p.last != nil {
		h.feat, h.model, h.lfs = p.last.Artifacts.Featurizer, p.last.Artifacts.EndModel, p.last.LFs
	}
	return h
}

func (p *pipelineInst) close() {}
