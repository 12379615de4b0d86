// Command datasculpt runs one DataSculpt pipeline configuration on one
// dataset and prints the resulting LF set, its statistics, and the
// downstream model performance:
//
//	datasculpt -dataset youtube
//	datasculpt -dataset imdb -variant sc -model gpt-4 -iterations 50
//	datasculpt -dataset spouse -variant kate -sampler uncertain -seeds 3
//
// It is the quickest way to explore how the framework behaves under a
// specific configuration; use benchtab to regenerate the paper's full
// tables and figures. The run is a one-cell benchtab grid (method =
// variant, title "datasculpt"): each seed gets the corpus and pipeline
// seed benchtab would give it, seeds run one at a time in order, the
// summary is their mean, and -checkpoint/-resume, -metrics-out's grid_*
// series and -trace-out's cell spans behave as they do in benchtab.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/experiment"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

func main() {
	dsName := flag.String("dataset", "youtube", "dataset name (youtube, sms, imdb, yelp, agnews, spouse)")
	variant := flag.String("variant", "base", "prompting variant: base, cot, sc, kate")
	model := flag.String("model", "gpt-3.5", "LLM profile (gpt-3.5, gpt-4, llama2-7b, llama2-13b, llama2-70b)")
	smp := flag.String("sampler", "random", "query instance sampler: random, uncertain, seu, qbc, coreset")
	labelModel := flag.String("labelmodel", "metal", "label model: metal, majority, triplet, dawid-skene, weighted")
	iterations := flag.Int("iterations", 50, "query iterations")
	seeds := flag.Int("seeds", 1, "number of seeds to average")
	scale := flag.Float64("scale", 1.0, "dataset scale: (0,1) shrinks, 1 is Table-1 size, >1 grows every split proportionally")
	noAccuracy := flag.Bool("no-accuracy-filter", false, "disable the accuracy filter")
	noRedundancy := flag.Bool("no-redundancy-filter", false, "disable the redundancy filter")
	showLFs := flag.Bool("lfs", false, "print the generated LF set with per-LF statistics")
	analyze := flag.Bool("analyze", false, "print the Snorkel-style LF analysis table (coverage/overlap/conflict)")
	saveLFs := flag.String("save-lfs", "", "write the final LF set as JSON to this path")
	saveBundle := flag.String("save-bundle", "", "write the full trained model bundle (LFs, label model, featurizer, end model, provenance) to this path, servable with datasculptd")
	revise := flag.Bool("revise", false, "enable the counterexample-revision pass after the main loop")
	checkpoint := flag.String("checkpoint", "", "append each completed seed to this JSONL file (resumable with -resume)")
	resume := flag.String("resume", "", "skip seeds already recorded in this checkpoint file (may equal -checkpoint; assumes the same flags)")
	maxFailedIters := flag.Int("max-failed-iterations", 0, "iteration failure budget (0 = strict, -1 = unlimited)")
	parallelism := flag.Int("parallelism", 0, "evaluation-engine worker goroutines per run (0 = GOMAXPROCS, 1 = sequential; results identical)")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	traceOut := flag.String("trace-out", "", "stream one JSON span per line (run > iteration > stage) to this file")
	metricsOut := flag.String("metrics-out", "", "write final metrics here on exit (Prometheus text; JSON if the path ends in .json)")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address")
	flag.Parse()

	// Ctrl-C aborts between prompts rather than killing mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o, cleanup, err := obs.Setup(obs.SetupConfig{
		LogLevel:    *logLevel,
		TracePath:   *traceOut,
		MetricsPath: *metricsOut,
		DebugAddr:   *debugAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "datasculpt:", err)
		os.Exit(1)
	}
	runErr := run(ctx, runOptions{
		dataset: *dsName, variant: *variant, model: *model, sampler: *smp,
		labelModel: *labelModel, iterations: *iterations, seeds: *seeds,
		scale: *scale, noAccuracy: *noAccuracy, noRedundancy: *noRedundancy,
		showLFs: *showLFs, analyze: *analyze, saveLFs: *saveLFs, saveBundle: *saveBundle, revise: *revise,
		checkpoint: *checkpoint, resume: *resume, maxFailedIters: *maxFailedIters,
		parallelism: *parallelism, obs: o,
	})
	// The cleanup writes -metrics-out and flushes the trace sink, so it
	// must run (and be checked) even when the run itself failed.
	if cerr := cleanup(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "datasculpt:", runErr)
		os.Exit(1)
	}
}

// runOptions bundles the CLI flags.
type runOptions struct {
	dataset, variant, model, sampler, labelModel string
	iterations, seeds                            int
	scale                                        float64
	noAccuracy, noRedundancy                     bool
	showLFs, analyze, revise                     bool
	saveLFs, saveBundle                          string
	checkpoint, resume                           string
	maxFailedIters, parallelism                  int
	obs                                          *obs.Obs
}

// cliGridTitle names datasculpt's one-cell grid, which namespaces its
// per-seed checkpoint records so they cannot collide with benchtab
// sweeps sharing a file.
const cliGridTitle = "datasculpt"

func run(ctx context.Context, o runOptions) error {
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", o.seeds)
	}
	if o.obs == nil {
		o.obs = obs.Default()
	}
	// The seeds run as a one-cell sweep (method = variant), one at a
	// time and in order. computed marks the seeds run this invocation;
	// the rest were restored from -resume. Restored seeds carry
	// statistics only, so -lfs/-analyze/-save-* report from the last
	// computed seed.
	computed := make(map[int]bool)
	var final *core.Result
	var last *dataset.Dataset
	var finalCfg core.Config
	var cacheStats llm.CacheStats
	g, err := experiment.Sweep(ctx, experiment.Options{
		Seeds: o.seeds, Scale: o.scale, Datasets: []string{o.dataset},
		Iterations: o.iterations, Model: o.model, Workers: 1,
		Checkpoint: o.checkpoint, ResumeFrom: o.resume,
		MaxFailedIterations: o.maxFailedIters, Obs: o.obs,
	}, cliGridTitle, []string{o.variant},
		func(ctx context.Context, variant string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
			cfg.Variant = core.Variant(variant)
			cfg.Sampler = o.sampler
			cfg.LabelModel = o.labelModel
			cfg.Filters = lf.FilterConfig{UseAccuracy: !o.noAccuracy, UseRedundancy: !o.noRedundancy}
			cfg.ReviseRejected = o.revise
			cfg.Parallelism = o.parallelism
			// A response cache in front of the endpoint the pipeline
			// builds, so the summary can report hit rates (and repeated
			// prompts cost nothing against a real provider).
			var cache *llm.Cache
			cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel {
				cache = llm.NewCache(m).Instrument(o.obs.Metrics)
				return cache
			}
			res, err := core.RunContext(ctx, d, cfg)
			if err != nil {
				return nil, err
			}
			cacheStats.Add(cache.Stats())
			computed[seed], final, last, finalCfg = true, res, d, cfg
			return res, nil
		})
	if err != nil {
		return err
	}

	results := g.Seeds[o.variant][o.dataset]
	var totalCost float64
	for i, r := range results {
		restored := " (restored)"
		if computed[i+1] {
			restored = ""
		}
		fmt.Printf("seed %d%s: %s\n", i+1, restored, r)
		totalCost += r.CostUSD
	}
	st, _ := g.Get(o.variant, o.dataset)
	fmt.Printf("\n%s / datasculpt-%s / %s / %s sampling, %d iterations, %d seed(s)\n",
		o.dataset, o.variant, o.model, o.sampler, o.iterations, o.seeds)
	fmt.Printf("  #LFs:        %.1f\n", st.NumLFs)
	if st.LFAccKnown {
		fmt.Printf("  LF accuracy: %.3f\n", st.LFAcc)
	} else {
		fmt.Printf("  LF accuracy: - (train labels unavailable)\n")
	}
	fmt.Printf("  LF coverage: %.4f\n", st.LFCov)
	fmt.Printf("  total cov.:  %.3f\n", st.TotalCov)
	fmt.Printf("  end %s: %.3f\n", st.MetricName, st.EM)
	fmt.Printf("  tokens:      %.0f  (cost $%.4f)\n", st.TotalTokens(), st.CostUSD)
	fmt.Printf("  cache:       %s; total cost $%.4f across %d seed(s)\n",
		cacheStats, totalCost, o.seeds)

	if (o.saveLFs != "" || o.saveBundle != "" || o.analyze || o.showLFs) && final == nil {
		fmt.Println("\nnote: every seed was restored from the checkpoint; trained artifacts are not" +
			" checkpointed, so -save-lfs, -save-bundle, -analyze and -lfs have nothing to report")
	}
	if final == nil {
		return nil
	}
	if o.saveLFs != "" {
		data, err := lf.MarshalLFs(final.LFs)
		if err != nil {
			return fmt.Errorf("serializing LF set: %w", err)
		}
		if err := os.WriteFile(o.saveLFs, data, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", o.saveLFs, err)
		}
		fmt.Printf("\nwrote %d LFs to %s\n", len(final.LFs), o.saveLFs)
	}
	if o.saveBundle != "" {
		b, err := bundle.New(last, finalCfg, final)
		if err != nil {
			return err
		}
		if err := bundle.Save(o.saveBundle, b); err != nil {
			return err
		}
		fmt.Printf("\nwrote model bundle (%d LFs, %s %.3f) to %s — serve it with:"+
			"\n  datasculptd -bundle %s\n",
			len(b.LFs), b.Dataset.MetricName, b.Provenance.EndMetric, o.saveBundle, o.saveBundle)
	}
	if !o.analyze && !o.showLFs {
		return nil
	}
	// One train index and vote matrix serve both reports.
	vm := lf.BuildVoteMatrix(lf.NewIndex(last.Train), final.LFs)
	var gold []int
	if last.TrainLabeled {
		gold = dataset.Labels(last.Train)
	}
	sums := lf.Analyze(vm, final.LFs, gold)
	if o.analyze {
		sorted := append([]lf.Summary(nil), sums...)
		lf.SortByCoverage(sorted)
		fmt.Println("\nLF analysis (train split):")
		fmt.Print(lf.FormatSummaries(sorted))
	}
	if o.showLFs {
		fmt.Println("\nGenerated label functions (last computed seed):")
		sort.Slice(sums, func(i, j int) bool { return sums[i].Coverage > sums[j].Coverage })
		for _, s := range sums {
			if last.TrainLabeled {
				fmt.Printf("  %-40s cov=%.4f acc=%.3f (n=%d)\n", s.Name, s.Coverage, s.Accuracy, s.Correct+s.Incorrect)
			} else {
				fmt.Printf("  %-40s cov=%.4f\n", s.Name, s.Coverage)
			}
		}
	}
	return nil
}
