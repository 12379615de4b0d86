package main

import "datasculpt/internal/core"

// workloads are the benchmark's five traffic and corpus choices. Each
// stresses different layers; README.md gives their measured shares.
// Corpora that the measured operations train on are a tenth of their
// Table-1 size, so that a run repeats its operation dozens of times: on
// a shared host a median over three multi-second operations moved by
// a quarter between runs of the same code.
var workloads = []*workload{
	pipelineWorkload("pipeline-agnews-uncertain",
		"Agnews at 1/10 Table-1 size, uncertainty sampling: interim refits and the final aggregation (vote matrix, label model, end model) dominate",
		corpus{"agnews", 0.1}, core.VariantBase, "uncertain"),
	pipelineWorkload("pipeline-yelp-kate-seu",
		"Yelp at 1/10 Table-1 size, KATE variant with SEU sampling: no interim refits, so the query loop (SEU scoring, KATE retrieval, 10-sample prompts) dominates",
		corpus{"yelp", 0.1}, core.VariantKATE, "seu"),
	serveWorkload("serve-interactive",
		"4 tenants of a Youtube bundle, loadgen's mix at 400 req/s open loop then closed loop: small requests, so the coalescer's 2 ms wait dominates",
		serveConfig{corpus: corpus{"youtube", 1}, tenants: 4, batchFrac: 0.25, batchSize: 8, explainFrac: 0.10, rate: 400}),
	serveWorkload("serve-bulk",
		"One Agnews bundle, closed loop of 64-text batches, 25% explain: each request fills MaxBatch, so the 2 ms wait never runs and featurize, LF explain and JSON dominate",
		serveConfig{corpus: corpus{"agnews", 0.1}, tenants: 1, batchFrac: 1, batchSize: 64, explainFrac: 0.25, distinct: true}),
	growthWorkload("growth-yelp",
		"Growth cycles over a Yelp parent bundle, 4-cycle lineages, 512 fresh texts and 16 proposer steps a cycle: the only workload that journals, saves bundles and promotes",
		corpus{"yelp", 0.1}),
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
