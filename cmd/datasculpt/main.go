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
// tables and figures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/experiment"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/metrics"
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
	annThreshold := flag.Int("ann-threshold", 0, "KATE pool size at which retrieval switches to the LSH index (0 = default 16384, negative = always exact)")
	annMultiplier := flag.Int("ann-multiplier", 0, "LSH shortlist size as a multiple of -shots (0 = default 16)")
	voteSpillMB := flag.Int("vote-spill-mb", 0, "resident-memory budget for the train vote matrix in MB; cold columns spill to a temp file (0 = fully resident)")
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
	runErr := run(obs.NewContext(ctx, o), runOptions{
		dataset: *dsName, variant: *variant, model: *model, sampler: *smp,
		labelModel: *labelModel, iterations: *iterations, seeds: *seeds,
		scale: *scale, noAccuracy: *noAccuracy, noRedundancy: *noRedundancy,
		showLFs: *showLFs, analyze: *analyze, saveLFs: *saveLFs, saveBundle: *saveBundle, revise: *revise,
		checkpoint: *checkpoint, resume: *resume, maxFailedIters: *maxFailedIters,
		parallelism:  *parallelism,
		annThreshold: *annThreshold, annMultiplier: *annMultiplier, voteSpillMB: *voteSpillMB,
		obs: o,
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
	maxFailedIters                               int
	parallelism                                  int
	annThreshold, annMultiplier, voteSpillMB     int
	obs                                          *obs.Obs
}

// cliGridTitle namespaces datasculpt's per-seed checkpoint records so
// they cannot collide with benchtab sweeps sharing a file.
const cliGridTitle = "datasculpt"

func run(ctx context.Context, o runOptions) error {
	dsName, variant, model, smp, labelModel := o.dataset, o.variant, o.model, o.sampler, o.labelModel
	iterations, seeds, scale := o.iterations, o.seeds, o.scale
	noAccuracy, noRedundancy, showLFs := o.noAccuracy, o.noRedundancy, o.showLFs
	if seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", seeds)
	}
	if o.obs == nil {
		o.obs = obs.Default()
	}
	// Seeds recorded in a -resume checkpoint are restored instead of
	// re-run; completed seeds are appended to -checkpoint as they finish.
	var restored map[int]*core.Result
	if o.resume != "" {
		records, err := experiment.LoadCheckpoint(o.resume)
		if err != nil {
			return err
		}
		restored = make(map[int]*core.Result)
		for i := range records {
			rec := &records[i]
			if rec.Grid == cliGridTitle && rec.Method == variant && rec.Dataset == dsName {
				restored[rec.Seed] = rec.Result
			}
		}
	}
	var cw *ckpt.Writer
	if o.checkpoint != "" {
		w, err := ckpt.Open(o.checkpoint)
		if err != nil {
			return err
		}
		defer w.Close()
		cw = w
	}

	var results []*core.Result
	var last *dataset.Dataset
	// finalComputed is the last result actually run this invocation;
	// restored seeds carry statistics only (LF sets are not
	// checkpointed), so -lfs/-analyze/-save-lfs report from it.
	var finalComputed *core.Result
	var finalCfg core.Config
	var cacheStats llm.CacheStats
	for s := 1; s <= seeds; s++ {
		if res, ok := restored[s]; ok {
			results = append(results, res)
			fmt.Printf("seed %d (restored): %s\n", s, res)
			if cw != nil && o.checkpoint != o.resume {
				rec := experiment.CellRecord{Grid: cliGridTitle, Method: variant, Dataset: dsName, Seed: s, Result: res}
				if err := cw.Append(rec); err != nil {
					return err
				}
			}
			continue
		}
		d, err := dataset.Load(dsName, int64(7000+13*s), scale)
		if err != nil {
			return err
		}
		last = d
		cfg := core.Config{
			Model:      model,
			Variant:    core.Variant(variant),
			Iterations: iterations,
			Sampler:    smp,
			LabelModel: labelModel,
			Filters: lf.FilterConfig{
				UseAccuracy:   !noAccuracy,
				UseRedundancy: !noRedundancy,
			},
			ReviseRejected:      o.revise,
			MaxFailedIterations: o.maxFailedIters,
			Parallelism:         o.parallelism,
			ANNThreshold:        o.annThreshold,
			ANNMultiplier:       o.annMultiplier,
			VoteSpillMB:         o.voteSpillMB,
			Seed:                int64(100*s + 1),
		}
		// Same endpoint the pipeline would build itself, with a response
		// cache in front so the end-of-run summary can report hit rates
		// (and repeated prompts cost nothing against a real provider).
		sim, err := llm.NewSimulated(model, d, cfg.Seed+101)
		if err != nil {
			return err
		}
		cache := llm.NewCache(sim).Instrument(o.obs.Metrics)
		cfg.ChatModel = cache
		res, err := core.RunContext(ctx, d, cfg)
		if err != nil {
			return err
		}
		cacheStats.Add(cache.Stats())
		results = append(results, res)
		finalComputed = res
		finalCfg = cfg
		fmt.Printf("seed %d: %s\n", s, res)
		if cw != nil {
			rec := experiment.CellRecord{Grid: cliGridTitle, Method: variant, Dataset: dsName, Seed: s, Result: res}
			if err := cw.Append(rec); err != nil {
				return err
			}
		}
	}

	fmt.Printf("\n%s / datasculpt-%s / %s / %s sampling, %d iterations, %d seed(s)\n",
		dsName, variant, model, smp, iterations, seeds)
	var nlf, acc, cov, total, em, tokens, cost []float64
	accKnown := false
	for _, r := range results {
		nlf = append(nlf, float64(r.NumLFs))
		cov = append(cov, r.LFCoverage)
		total = append(total, r.TotalCoverage)
		em = append(em, r.EndMetric)
		tokens = append(tokens, float64(r.TotalTokens()))
		cost = append(cost, r.CostUSD)
		if r.LFAccuracyKnown {
			acc = append(acc, r.LFAccuracy)
			accKnown = true
		}
	}
	fmt.Printf("  #LFs:        %.1f\n", metrics.Mean(nlf))
	if accKnown {
		fmt.Printf("  LF accuracy: %.3f\n", metrics.Mean(acc))
	} else {
		fmt.Printf("  LF accuracy: - (train labels unavailable)\n")
	}
	fmt.Printf("  LF coverage: %.4f\n", metrics.Mean(cov))
	fmt.Printf("  total cov.:  %.3f\n", metrics.Mean(total))
	fmt.Printf("  end %s: %.3f\n", results[0].MetricName, metrics.Mean(em))
	fmt.Printf("  tokens:      %.0f  (cost $%.4f)\n", metrics.Mean(tokens), metrics.Mean(cost))
	var totalCost float64
	for _, c := range cost {
		totalCost += c
	}
	fmt.Printf("  cache:       %s; total cost $%.4f across %d seed(s)\n",
		cacheStats, totalCost, seeds)

	final := finalComputed
	if (o.saveLFs != "" || o.saveBundle != "" || o.analyze || showLFs) && final == nil {
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
	if !o.analyze && !showLFs {
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
	if showLFs {
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
