package main

// layerDef is one metric the benchmark prints.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// metricDef is an end-to-end metric. Bound is the share of the baseline
// median by which it may worsen before a change counts as a regression.
type metricDef struct {
	layerDef
	Bound float64 `json:"bound"`
}

// defaultSeconds is how long one run measures (BENCHMARK.json run_seconds).
const defaultSeconds = 20

// endToEnd is what a user of the system sees. Every workload reports
// every metric, so each is defined for a pipeline run, a served request
// and a growth cycle alike (see README.md, "Metrics"). The timing
// bounds are the widest allowed because the host is shared: the wall
// clock of identical CPU-bound work drifts by 10-40% over minutes, and
// by up to a factor of two over an hour.
var endToEnd = []metricDef{
	{layerDef{"setup_s", "s", "lower"}, 0.25},
	{layerDef{"latency_p50_ms", "ms", "lower"}, 0.25},
	{layerDef{"peak_rss_mb", "MB", "lower"}, 0.25},
}

// perLayer comes from the traced run. Times are shares of the traced
// operation wall clock, so a layer a workload never reaches reads 0%
// rather than a constant time.
var perLayer = []layerDef{
	{"trace.op_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"dataset.generate_s", "s", "lower"},
	{"setup.dataset_share", "%", "lower"},
	{"setup.train_share", "%", "lower"},
	{"setup.bundle_io_share", "%", "lower"},
	{"setup.register_share", "%", "lower"},
	{"core.setup_share", "%", "lower"},
	{"core.loop_share", "%", "lower"},
	{"core.select_share", "%", "lower"},
	{"sampler.seu_score_share", "%", "lower"},
	{"sampler.seu_cache_hit_ratio", "ratio", "higher"},
	{"llm.chat_share", "%", "lower"},
	{"llm.calls", "count", "lower"},
	{"llm.tokens", "count", "lower"},
	{"llm.tokens_per_call", "count", "lower"},
	{"prompt.parse_share", "%", "lower"},
	{"lf.filter_share", "%", "lower"},
	{"lf.offered", "count", "higher"},
	{"lf.kept", "count", "higher"},
	{"lf.kept_ratio", "ratio", "higher"},
	{"core.interim_share", "%", "lower"},
	{"eval.interim_refits", "count", "lower"},
	{"eval.interim_cache_hits", "count", "higher"},
	{"eval.train_proba_share", "%", "lower"},
	{"eval.labelmodel_fits", "count", "lower"},
	{"eval.em_iterations_mean", "count", "lower"},
	{"eval.vote_columns_built", "count", "lower"},
	{"eval.vote_columns_reused", "count", "higher"},
	{"core.aggregate_share", "%", "lower"},
	{"growth.step_share", "%", "lower"},
	{"growth.cycle_self_share", "%", "lower"},
	{"growth.cycles", "count", "higher"},
	{"growth.promoted", "count", "higher"},
	{"growth.new_lfs_per_cycle", "count", "higher"},
	{"client.transport_share", "%", "lower"},
	{"client.backlog", "count", "lower"},
	{"client.late_share", "%", "lower"},
	{"client.p99_over_p50", "ratio", "lower"},
	{"client.closed_texts_per_s", "texts/s", "higher"},
	{"gateway.self_share", "%", "lower"},
	{"serve.queue_wait_share", "%", "lower"},
	{"serve.batch_share", "%", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.batches", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.dropped", "count", "lower"},
	{"textproc.featurize_us_per_text", "us", "lower"},
	{"endmodel.predict_us_per_text", "us", "lower"},
	{"lf.explain_us_per_text", "us", "lower"},
	{"quality.end_metric", "ratio", "higher"},
}

// benchmarkFile is the schema of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specFile renders the definitions in this package as BENCHMARK.json.
func specFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	return f
}

// printed returns the metrics a run prints: per-layer when traced,
// end-to-end otherwise.
func printed(traced bool) []layerDef {
	if traced {
		return perLayer
	}
	defs := make([]layerDef, len(endToEnd))
	for i, d := range endToEnd {
		defs[i] = d.layerDef
	}
	return defs
}
