package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
)

// -update regenerates testdata/runs.golden from the current pipeline:
// go test ./internal/core/ -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/runs.golden with current pipeline outputs")

// goldenConfig is the small-scale base configuration every pinned run
// mutates.
func goldenConfig(v Variant, smp string) Config {
	cfg := DefaultConfig(v)
	cfg.Sampler = smp
	cfg.Iterations = 10
	cfg.Seed = 23
	cfg.FeatureDim = 1024
	cfg.EndModel.Epochs = 2
	cfg.SCSamples = 4
	cfg.Parallelism = 1
	return cfg
}

// bits renders a float exactly: the human-readable value for the reader,
// the IEEE-754 bit pattern for the comparison.
func bits(x float64) string { return fmt.Sprintf("%.6f/%016x", x, math.Float64bits(x)) }

// writeResult appends every pinned field of r.
func writeResult(buf *bytes.Buffer, r *Result) {
	names := make([]string, len(r.LFs))
	for i, f := range r.LFs {
		names[i] = f.Name()
	}
	fmt.Fprintf(buf, "method: %s\n", r.Method)
	fmt.Fprintf(buf, "lfs (%d): %s\n", r.NumLFs, strings.Join(names, ", "))
	fmt.Fprintf(buf, "end_metric: %s\n", bits(r.EndMetric))
	fmt.Fprintf(buf, "lf_accuracy: %s known=%v\n", bits(r.LFAccuracy), r.LFAccuracyKnown)
	fmt.Fprintf(buf, "lf_coverage: %s\n", bits(r.LFCoverage))
	fmt.Fprintf(buf, "total_coverage: %s\n", bits(r.TotalCoverage))
	fmt.Fprintf(buf, "cost_usd: %s\n", bits(r.CostUSD))
	fmt.Fprintf(buf, "tokens: prompt=%d completion=%d calls=%d\n", r.PromptTokens, r.CompletionTokens, r.Calls)
	fmt.Fprintf(buf, "parse_failures: %d failed_iterations: %d\n", r.ParseFailures, r.FailedIterations)
	reasons := make([]string, 0, len(r.Rejections))
	for k := range r.Rejections {
		reasons = append(reasons, string(k))
	}
	sort.Strings(reasons)
	fmt.Fprintf(buf, "rejections:")
	for _, k := range reasons {
		fmt.Fprintf(buf, " %s=%d", k, r.Rejections[lf.RejectReason(k)])
	}
	buf.WriteString("\n")
}

// faultWrap returns a WrapModel hook putting a seeded fault injector in
// front of every endpoint it wraps; each wrap gets the next seed, so a
// Proposer's per-iteration endpoints draw distinct fault streams.
func faultWrap(seed int64) func(llm.ChatModel) llm.ChatModel {
	n := int64(0)
	return func(m llm.ChatModel) llm.ChatModel {
		n++
		return llm.NewFaultInjector(m, llm.FaultRates{Timeout: 0.2, Truncate: 0.15, Garbage: 0.15}, seed+n)
	}
}

// goldenProposer runs budget live steps and renders the journal (one
// JSON line per step, exactly as the growth loop writes it) and the
// evaluation.
func goldenProposer(t *testing.T, buf *bytes.Buffer, d *dataset.Dataset, cfg Config, opts ProposerOptions, budget int) *Proposer {
	t.Helper()
	p, err := NewProposer(d, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < budget; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(buf, "step: %s\n", line)
		if st.Exhausted {
			break
		}
	}
	res, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(buf, "new_lfs: %d\n", p.NewCount())
	writeResult(buf, res)
	return p
}

// TestRunsGolden pins the pipeline's outputs bit for bit: RunContext
// over every variant × sampler pair the paper tables sweep, a relation
// dataset, two multi-class datasets, the revision pass, a fault-degraded
// run, and the growth
// Proposer's journal and evaluation. Everything is a deterministic
// function of the seeded configs, so any drift is a behaviour change.
func TestRunsGolden(t *testing.T) {
	yt, err := dataset.Load("youtube", 23, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run := func(name string, d *dataset.Dataset, cfg Config) {
		t.Helper()
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&buf, "== %s\n", name)
		writeResult(&buf, res)
	}

	for _, v := range Variants() {
		for _, smp := range []string{"random", "uncertain", "seu"} {
			cfg := goldenConfig(v, smp)
			cfg.UncertainRefreshEvery = 3
			run(fmt.Sprintf("youtube/%s/%s", v, smp), yt, cfg)
		}
	}

	spouse, err := dataset.Load("spouse", 23, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	run("spouse/base/random", spouse, goldenConfig(VariantBase, "random"))

	// Multi-class runs: Agnews (K=4) with interim refits and TREC (K=6),
	// so the end model's class blocks of four and of four plus two are
	// pinned along with the binary ones.
	agnews, err := dataset.Load("agnews", 23, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	agnewsCfg := goldenConfig(VariantBase, "uncertain")
	agnewsCfg.UncertainRefreshEvery = 3
	run("agnews/base/uncertain", agnews, agnewsCfg)

	trec, err := dataset.Load("trec", 23, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run("trec/base/random", trec, goldenConfig(VariantBase, "random"))

	revise := goldenConfig(VariantSC, "random")
	revise.Iterations = 12
	revise.ReviseRejected = true
	revise.MaxRevisions = 6
	run("youtube/sc/random/revise", yt, revise)

	faulty := goldenConfig(VariantSC, "seu")
	faulty.Iterations = 12
	faulty.MaxFailedIterations = UnlimitedFailures
	faulty.WrapModel = faultWrap(5)
	run("youtube/sc/seu/faults", yt, faulty)

	first, err := NewProposer(yt, goldenConfig(VariantBase, "random"), ProposerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 6; it++ {
		if _, err := first.Step(context.Background(), it); err != nil {
			t.Fatal(err)
		}
	}
	frozen := append([]lf.LabelFunction(nil), first.Accepted()...)
	first.Close()
	buf.WriteString("== proposer/base/random/frozen\n")
	goldenProposer(t, &buf, yt, goldenConfig(VariantBase, "random"),
		ProposerOptions{Frozen: frozen, QueryPoolStart: len(yt.Train) / 2}, 8).Close()

	kate := goldenConfig(VariantKATE, "seu")
	kate.WrapModel = faultWrap(9)
	buf.WriteString("== proposer/kate/seu/faults\n")
	goldenProposer(t, &buf, yt, kate, ProposerOptions{}, 8).Close()

	golden := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("pipeline outputs drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}
