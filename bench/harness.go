package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// size scales the workloads: full size for the benchmark, smoke size for
// the tests.
type size struct {
	// dataset, when set, replaces every workload's own corpus, at scale.
	dataset string
	scale   float64
	// iterations overrides the pipeline's 50 query iterations when > 0.
	iterations int
	// setups is how many times set-up runs at least, and setupTime how
	// long set-ups run at least (up to maxSetups); setup_s is their
	// median. Cheap set-ups repeat more, which steadies their median.
	setups    int
	setupTime time.Duration
	// capture is how many fresh texts feed each growth cycle, budget its
	// proposer iterations, maxCycles (when > 0) caps cycles per pass.
	capture, budget, maxCycles int
}

var (
	fullSize  = size{setups: 3, setupTime: 2 * time.Second, capture: 512, budget: 16}
	smokeSize = size{dataset: "youtube", scale: 0.3, iterations: 10, setups: 1, capture: 64, budget: 4, maxCycles: episodeCycles + 1}
)

const maxSetups = 20

// corpus is a generated dataset: a name dataset.Load knows and the share
// of its Table-1 size.
type corpus struct {
	name  string
	scale float64
}

// load generates c, or the size's own dataset in its place, from seed.
func (s size) load(c corpus, seed int64) (*dataset.Dataset, error) {
	if s.dataset != "" {
		c = corpus{s.dataset, s.scale}
	}
	return dataset.Load(c.name, seed, c.scale)
}

// workload is one named set of inputs and the operation it repeats.
type workload struct {
	name, why string
	setup     func(ctx context.Context, e *setupEnv) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs operations until window has passed, finishing the one
	// in flight, and records them in p.
	measure(ctx context.Context, window time.Duration, p *pass) error
	// layers adds the workload's own per-layer numbers for a traced pass
	// whose spans a summarizes.
	layers(p *pass, a spanSums, m map[string]float64)
	// hotPath returns texts and a model for the per-text kernel timings.
	hotPath(p *pass) hotPath
	close()
}

// setupEnv carries what a set-up needs; root times its steps.
type setupEnv struct {
	seed int64
	size size
	mem  *obs.MemoryTracer // nil when untraced
	root obs.Span
}

func (e *setupEnv) tracer() obs.Tracer {
	if e.mem == nil {
		return obs.NopTracer()
	}
	return e.mem
}

// step runs fn under a child span of the set-up.
func (e *setupEnv) step(name string, fn func() error) error {
	s := e.root.Child(name)
	err := fn()
	s.SetErr(err)
	s.End()
	return err
}

// generate builds a corpus from the seed (the program gets only this).
func (e *setupEnv) generate(c corpus, seed int64) (d *dataset.Dataset, err error) {
	err = e.step("dataset.generate", func() error {
		d, err = e.size.load(c, seed)
		return err
	})
	return d, err
}

// pass is one measured window: untraced for the end-to-end numbers, or
// traced for the per-layer split.
type pass struct {
	mem       *obs.MemoryTracer // nil when untraced
	lat       []float64         // per-operation latency, ms
	attempted int
	failed    int
	errs      []string
	sigs      []string // per-operation output signatures
	extra     map[string]float64
}

func newPass(mem *obs.MemoryTracer) *pass {
	return &pass{mem: mem, extra: make(map[string]float64)}
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// startOp opens the bench.op span an operation's program spans nest
// under; untraced, it returns ctx and a no-op span.
func (p *pass) startOp(ctx context.Context) (context.Context, obs.Span) {
	if p.mem == nil {
		return ctx, obs.NopTracer().StartSpan("")
	}
	s := p.mem.StartSpan("bench.op")
	return obs.ContextWithSpan(ctx, s), s
}

// outcome is everything one invocation measured.
type outcome struct {
	setup  []float64 // set-up wall clocks, s
	plain  *pass
	traced *pass // nil unless traced
	layers map[string]float64
	sums   spanSums
	rss    float64
}

// runWorkload sets w up, measures it for window, and, when traced,
// measures it again from a fresh traced set-up for the per-layer split.
// The untraced pass gets the whole window, or half of it when traced.
func runWorkload(ctx context.Context, w *workload, seed int64, window time.Duration, traced bool, sz size) (*outcome, error) {
	out := &outcome{plain: newPass(nil)}
	setups, setupTime := sz.setups, sz.setupTime
	if traced {
		setups, setupTime, window = 1, 0, window/2
	}
	var inst instance
	var spent time.Duration
	for i := 0; i < setups || (spent < setupTime && i < maxSetups); i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, &setupEnv{seed: seed, size: sz, root: obs.NopTracer().StartSpan("")})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		out.setup = append(out.setup, d.Seconds())
	}
	err := inst.measure(ctx, window, out.plain)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		runtime.GC()
		mem := obs.NewMemoryTracer()
		root := mem.StartSpan("setup")
		inst, err = w.setup(ctx, &setupEnv{seed: seed, size: sz, mem: mem, root: root})
		root.End()
		if err != nil {
			return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
		}
		out.traced = newPass(mem)
		err = inst.measure(ctx, window, out.traced)
		if err == nil {
			out.perLayer(inst)
		}
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
	}
	checkSignatures(out.plain, out.traced)
	out.rss = peakRSSMB()
	return out, nil
}

// checkSignatures counts a traced operation whose output differs from
// the untraced operation on the same inputs as failed: from a fresh
// set-up, the traced sequence must repeat the untraced one as far as
// both ran.
func checkSignatures(plain, traced *pass) {
	if traced == nil {
		return
	}
	for i := 0; i < min(len(plain.sigs), len(traced.sigs)); i++ {
		if plain.sigs[i] != traced.sigs[i] {
			traced.fail("operation %d output %s differs from untraced %s", i, traced.sigs[i], plain.sigs[i])
		}
	}
}

// shareRules maps per-layer shares onto span self times: name, spans
// whose self time it sums, and the span whose total is the base.
var shareRules = []struct {
	metric string
	spans  []string
	base   string
}{
	{"setup.dataset_share", []string{"dataset.generate"}, "setup"},
	{"setup.train_share", []string{"setup.train"}, "setup"},
	{"setup.bundle_io_share", []string{"bundle.save", "bundle.load"}, "setup"},
	{"setup.register_share", []string{"setup.register"}, "setup"},
	{"core.setup_share", []string{"run"}, "bench.op"},
	{"core.loop_share", []string{"iteration", "prompt"}, "bench.op"},
	{"core.select_share", []string{"select"}, "bench.op"},
	{"llm.chat_share", []string{"llm.chat"}, "bench.op"},
	{"prompt.parse_share", []string{"parse"}, "bench.op"},
	{"lf.filter_share", []string{"filter"}, "bench.op"},
	{"core.interim_share", []string{"interim"}, "bench.op"},
	{"core.aggregate_share", []string{"aggregate"}, "bench.op"},
	{"growth.step_share", []string{"growth.step"}, "bench.op"},
	{"growth.cycle_self_share", []string{"growth.cycle"}, "bench.op"},
	{"client.transport_share", []string{"client.request"}, "client.request"},
	{"gateway.self_share", []string{"bench.handler", "gateway.request"}, "client.request"},
}

func share(part, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(base)
}

// perLayer fills out.layers from the traced pass: span shares first,
// then the workload's own counters, then the hot-path kernels. Layers a
// workload never reaches are absent and print as 0.
func (out *outcome) perLayer(inst instance) {
	p := out.traced
	spans := p.mem.Spans()
	a := analyze(spans)
	out.sums = a
	m := make(map[string]float64, len(perLayer))
	for _, r := range shareRules {
		var part time.Duration
		for _, s := range r.spans {
			part += a.self[s]
		}
		m[r.metric] = share(part, a.total[r.base])
	}
	req := a.total["client.request"]
	m["serve.queue_wait_share"] = share(a.queueWait, req)
	m["serve.batch_share"] = share(a.labelBatch, req)
	if n := a.count["setup"]; n > 0 {
		m["dataset.generate_s"] = a.total["dataset.generate"].Seconds() / float64(n)
	}
	m["trace.op_ms"] = median(p.lat)
	if calls, ops := a.count["llm.chat"], a.count["bench.op"]; calls > 0 && ops > 0 {
		tokens := float64(attrSum(spans, "llm.chat", "tokens"))
		m["llm.calls"] = float64(calls) / float64(ops)
		m["llm.tokens"] = tokens / float64(ops)
		m["llm.tokens_per_call"] = tokens / float64(calls)
	}
	// Over the operations both passes ran, which had the same inputs.
	if n := min(len(p.lat), len(out.plain.lat)); n > 0 && median(out.plain.lat[:n]) > 0 {
		m["trace.overhead_ratio"] = median(p.lat[:n]) / median(out.plain.lat[:n])
	}
	inst.layers(p, a, m)
	h := inst.hotPath(p)
	m["textproc.featurize_us_per_text"], m["endmodel.predict_us_per_text"], m["lf.explain_us_per_text"] = h.measure()
	out.layers = m
}

// hotPath is the serving kernel: featurize, predict and explain-mode LF
// evaluation, timed directly on a workload's texts in batches of the
// size the workload runs them at.
type hotPath struct {
	texts []string
	feat  *textproc.Featurizer
	model *endmodel.LogisticRegression
	lfs   []lf.LabelFunction
	batch int
}

// measure returns microseconds per text for each kernel, the median of
// three passes over up to 2048 texts.
func (h hotPath) measure() (featUS, predUS, explainUS float64) {
	n := min(len(h.texts), 2048)
	if n == 0 || h.feat == nil || h.model == nil {
		return 0, 0, 0
	}
	batch := max(h.batch, 1)
	var feat, pred, expl []float64
	for r := 0; r < 3; r++ {
		var ft, pt, et time.Duration
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			exs := make([]*dataset.Example, hi-lo)
			corpus := make([][]string, hi-lo)
			t0 := time.Now()
			for i := range exs {
				exs[i] = &dataset.Example{ID: -1, Text: h.texts[lo+i], Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
				corpus[i] = exs[i].FeatureTokens()
			}
			X := h.feat.TransformAll(corpus)
			t1 := time.Now()
			h.model.PredictProbaAll(X)
			t2 := time.Now()
			for _, e := range exs {
				lf.ApplyAll(h.lfs, e)
			}
			ft, pt, et = ft+t1.Sub(t0), pt+t2.Sub(t1), et+time.Since(t2)
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
		feat, pred, expl = append(feat, us(ft)), append(pred, us(pt)), append(expl, us(et))
	}
	return median(feat), median(pred), median(expl)
}

// endToEndValues computes the end-to-end metrics of the untraced pass.
func (out *outcome) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(out.setup),
		"latency_p50_ms": median(out.plain.lat),
		"peak_rss_mb":    out.rss,
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the printed line: end-to-end metrics untraced,
// per-layer metrics traced.
func (out *outcome) result() result {
	r := result{Attempted: out.plain.attempted, Failed: out.plain.failed, Metrics: make(map[string]metric)}
	values := out.endToEndValues()
	if out.traced != nil {
		r.Attempted += out.traced.attempted
		r.Failed += out.traced.failed
		values = out.layers
	}
	for _, d := range printed(out.traced != nil) {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
