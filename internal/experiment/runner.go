package experiment

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"datasculpt/internal/baselines"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
)

// Method names used across the grids, matching the paper's row labels.
const (
	MethodWrench      = "WRENCH"
	MethodScriptorium = "ScriptoriumWS"
	MethodPromptedLF  = "PromptedLF"
	MethodBase        = "DataSculpt-Base"
	MethodCoT         = "DataSculpt-CoT"
	MethodSC          = "DataSculpt-SC"
	MethodKATE        = "DataSculpt-KATE"
)

// MainMethods is the Table 2 row order.
func MainMethods() []string {
	return []string{
		MethodWrench, MethodScriptorium, MethodPromptedLF,
		MethodBase, MethodCoT, MethodSC, MethodKATE,
	}
}

// variantOf maps method labels to pipeline variants.
var variantOf = map[string]core.Variant{
	MethodBase: core.VariantBase,
	MethodCoT:  core.VariantCoT,
	MethodSC:   core.VariantSC,
	MethodKATE: core.VariantKATE,
}

// baseConfig builds the shared pipeline configuration for one cell.
// The method and dataset names only matter under Options.Chaos, which
// derives each cell's fault schedule from them.
func baseConfig(o Options, method, ds string, seed int) core.Config {
	cfg := core.Config{
		Model:               o.Model,
		Iterations:          o.Iterations,
		Seed:                int64(100*seed + 1),
		MaxFailedIterations: o.MaxFailedIterations,
		Parallelism:         o.Parallelism,
	}
	if o.Chaos != nil {
		cc := o.Chaos.normalized()
		cfg.WrapModel = cc.wrap(method, ds, seed, o.Obs.Metrics)
	}
	return cfg
}

// runMethod executes one (method, dataset, seed) cell.
func runMethod(ctx context.Context, o Options, method string, d *dataset.Dataset, seed int) (*core.Result, error) {
	cfg := baseConfig(o, method, d.Name, seed)
	switch method {
	case MethodWrench:
		lfs, err := baselines.Wrench(d)
		if err != nil {
			return nil, err
		}
		res, err := core.EvaluateLFSet(d, lfs, cfg)
		if err != nil {
			return nil, err
		}
		res.Method = method
		return res, nil
	case MethodScriptorium:
		lfs, meter, err := baselines.Scriptorium(ctx, d, o.Model, cfg.Seed+11)
		if err != nil {
			return nil, err
		}
		res, err := core.EvaluateLFSet(d, lfs, cfg)
		if err != nil {
			return nil, err
		}
		res.Method = method
		usage := meter.Snapshot()
		res.Calls = usage.Calls
		res.PromptTokens = usage.PromptTokens
		res.CompletionTokens = usage.CompletionTokens
		res.CostUSD = usage.CostUSD
		return res, nil
	case MethodPromptedLF:
		lfs, meter, err := baselines.PromptedLF(ctx, d, o.Model, cfg.Seed+17)
		if err != nil {
			return nil, err
		}
		res, err := core.EvaluateLFSet(d, lfs, cfg)
		if err != nil {
			return nil, err
		}
		res.Method = method
		usage := meter.Snapshot()
		res.Calls = usage.Calls
		res.PromptTokens = usage.PromptTokens
		res.CompletionTokens = usage.CompletionTokens
		res.CostUSD = usage.CostUSD
		return res, nil
	default:
		variant, ok := variantOf[method]
		if !ok {
			return nil, fmt.Errorf("experiment: unknown method %q", method)
		}
		cfg.Variant = variant
		res, err := core.RunContext(ctx, d, cfg)
		if err != nil {
			return nil, err
		}
		res.Method = method
		return res, nil
	}
}

// cellFunc executes one grid cell.
type cellFunc func(ctx context.Context, method string, d *dataset.Dataset, seed int) (*core.Result, error)

// cell is one schedulable (method, dataset, seed) unit of the sweep.
type cell struct {
	method, ds string
	seed       int
}

// sweep fills a grid by running `run` for every (method, dataset, seed)
// over a pool of Options.Workers goroutines.
//
// Determinism: every cell loads its own dataset copy and owns its RNGs
// and simulated endpoint, and each result is committed to a slot keyed
// by cell index — so the aggregated grid is byte-identical for any
// worker count, including 1. Error handling is errgroup-style fail-fast
// (first error cancels the shared context and wins) unless
// Options.KeepGoing, which records per-cell errors in the grid and
// averages each cell over its surviving seeds.
func sweep(ctx context.Context, o Options, title string, methods []string, run cellFunc) (*Grid, error) {
	// deterministic cell order: dataset-major, then method, then seed —
	// the same order the serial runner used
	var cells []cell
	for _, dsName := range o.Datasets {
		for _, method := range methods {
			for s := 1; s <= o.Seeds; s++ {
				cells = append(cells, cell{method: method, ds: dsName, seed: s})
			}
		}
	}

	results := make([]*core.Result, len(cells))
	cellErrs := make([]error, len(cells))

	// grid_* metrics give a live view of the sweep (watch them on
	// -debug-addr's /debug/vars while a long grid runs)
	reg := o.Obs.Metrics
	cellsTotal := reg.Gauge("grid_cells_total", "cells in the current sweep")
	cellsDone := reg.Counter("grid_cells_done_total", "cells completed (success or failure)")
	cellsFailed := reg.Counter("grid_cells_failed_total", "cells that returned an error")
	cellsResumed := reg.Counter("grid_cells_resumed_total", "cells restored from a checkpoint instead of re-run")
	cellSeconds := reg.Histogram("grid_cell_seconds", "wall-clock per grid cell, seconds", obs.DurationBuckets)
	workersBusy := reg.Gauge("grid_workers_busy", "workers currently executing a cell")
	cellsTotal.Set(float64(len(cells)))

	// restore cells a previous run already checkpointed for this sweep;
	// restored slots are committed directly and never scheduled. Failed
	// cells are absent from checkpoints, so a resume re-runs them.
	resumed := make(map[int]bool)
	if o.ResumeFrom != "" {
		records, err := LoadCheckpoint(o.ResumeFrom)
		if err != nil {
			return nil, err
		}
		byKey := make(map[string]*CellRecord, len(records))
		for i := range records {
			if records[i].Grid == title {
				byKey[cellKey(records[i].Method, records[i].Dataset, records[i].Seed)] = &records[i]
			}
		}
		for i, c := range cells {
			if rec, ok := byKey[cellKey(c.method, c.ds, c.seed)]; ok {
				results[i] = rec.Result
				resumed[i] = true
				cellsResumed.Inc()
			}
		}
		if len(resumed) > 0 {
			o.logf("  resuming: %d of %d cells restored from %s", len(resumed), len(cells), o.ResumeFrom)
		}
	}

	var cw *ckpt.Writer
	if o.Checkpoint != "" {
		w, err := ckpt.Open(o.Checkpoint)
		if err != nil {
			return nil, err
		}
		defer w.Close()
		cw = w
		// write restored cells through to a fresh checkpoint file so it
		// is self-contained; appending to the file we resumed from would
		// duplicate its lines
		if o.Checkpoint != o.ResumeFrom {
			for i, c := range cells {
				if resumed[i] {
					rec := CellRecord{Grid: title, Method: c.method, Dataset: c.ds, Seed: c.seed, Result: results[i]}
					if err := cw.Append(rec); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	ctx, cancel := context.WithCancel(obs.NewContext(ctx, o.Obs))
	defer cancel()
	var firstErr error
	var once sync.Once
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// runCell executes one cell under its own span; the pipeline's run
	// span nests beneath it via the span-carrying context.
	runCell := func(i int) {
		c := cells[i]
		span := o.Obs.Tracer.StartSpan("cell")
		span.SetStr("method", c.method)
		span.SetStr("dataset", c.ds)
		span.SetInt("seed", int64(c.seed))
		cctx := obs.ContextWithSpan(ctx, span)

		workersBusy.Add(1)
		start := time.Now()
		d, err := dataset.Load(c.ds, datasetSeed(c.seed), o.Scale)
		if err == nil {
			results[i], err = run(cctx, c.method, d, c.seed)
		}
		dur := time.Since(start)
		workersBusy.Add(-1)
		cellSeconds.Observe(dur.Seconds())
		cellsDone.Inc()

		if err != nil {
			err = fmt.Errorf("experiment %s/%s seed %d: %w", c.method, c.ds, c.seed, err)
			cellErrs[i] = err
			cellsFailed.Inc()
			span.SetErr(err)
			if !o.KeepGoing {
				fail(err)
			}
		} else if cw != nil {
			rec := CellRecord{Grid: title, Method: c.method, Dataset: c.ds, Seed: c.seed, Result: results[i]}
			if aerr := cw.Append(rec); aerr != nil {
				// a checkpoint problem shouldn't void the sweep itself —
				// the cell is computed; only resumability is degraded
				o.Obs.Logger.LogAttrs(ctx, slog.LevelWarn, "checkpoint append failed",
					slog.String("method", c.method), slog.String("dataset", c.ds),
					slog.Int("seed", c.seed), slog.String("err", aerr.Error()))
			}
		}
		span.End()
		o.Obs.Logger.LogAttrs(ctx, slog.LevelInfo, "cell done",
			slog.String("method", c.method), slog.String("dataset", c.ds),
			slog.Int("seed", c.seed), slog.Duration("dur", dur),
			slog.Int("done", int(cellsDone.Value())), slog.Int("total", len(cells)),
			slog.Bool("failed", err != nil))
	}

	workers := o.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil && !o.KeepGoing {
					cellErrs[i] = err // sweep canceled; drain remaining cells
					fail(err)         // no-op unless the parent ctx was canceled first
					continue
				}
				runCell(i)
			}
		}()
	}
	for i := range cells {
		if resumed[i] {
			continue
		}
		idx <- i
	}
	close(idx)
	wg.Wait()

	if !o.KeepGoing && firstErr != nil {
		return nil, firstErr
	}

	// aggregate in deterministic order; log lines match the serial runner
	g := newGrid(title, methods, o.Datasets)
	i := 0
	for _, dsName := range o.Datasets {
		for _, method := range methods {
			var seedResults []*core.Result
			var seedErrs []error
			for s := 1; s <= o.Seeds; s++ {
				if res := results[i]; res != nil {
					seedResults = append(seedResults, res)
				}
				if err := cellErrs[i]; err != nil {
					seedErrs = append(seedErrs, err)
				}
				i++
			}
			if len(seedErrs) > 0 {
				g.SetErr(method, dsName, errors.Join(seedErrs...))
			}
			st := meanStats(seedResults)
			g.Set(method, dsName, st)
			if len(seedResults) > 0 {
				o.logf("  %-16s %-8s #LF=%-6.1f acc=%-6.3f cov=%-7.4f total=%-6.3f %s=%-6.3f tok=%.0f",
					method, dsName, st.NumLFs, st.LFAcc, st.LFCov, st.TotalCov, st.MetricName, st.EM, st.TotalTokens())
			} else {
				o.logf("  %-16s %-8s FAILED: %v", method, dsName, g.Err(method, dsName))
			}
		}
	}
	return g, nil
}

// MainResults runs the Table 2 comparison (which also provides the data
// of Figures 3 and 4): all seven methods on every dataset.
func MainResults(o Options) (*Grid, error) {
	return MainResultsContext(context.Background(), o)
}

// MainResultsContext is MainResults with cancellation.
func MainResultsContext(ctx context.Context, o Options) (*Grid, error) {
	o = o.normalized()
	o.logf("== main results (Table 2, Figures 3-4): %d datasets x %d seeds, scale %.2f, %d workers",
		len(o.Datasets), o.Seeds, o.Scale, o.Workers)
	return sweep(ctx, o, "Table 2: LF statistics and end model performance", MainMethods(),
		func(ctx context.Context, method string, d *dataset.Dataset, seed int) (*core.Result, error) {
			return runMethod(ctx, o, method, d, seed)
		})
}

// LLMNames is the Table 3 row order.
func LLMNames() []string {
	return []string{"gpt-3.5", "gpt-4", "llama2-7b", "llama2-13b", "llama2-70b"}
}

// LLMAblation runs Table 3: DataSculpt-SC with each pre-trained model.
func LLMAblation(o Options) (*Grid, error) {
	return LLMAblationContext(context.Background(), o)
}

// LLMAblationContext is LLMAblation with cancellation.
func LLMAblationContext(ctx context.Context, o Options) (*Grid, error) {
	o = o.normalized()
	o.logf("== LLM ablation (Table 3): %d models", len(LLMNames()))
	return sweep(ctx, o, "Table 3: ablation study using different LLMs", LLMNames(),
		func(ctx context.Context, model string, d *dataset.Dataset, seed int) (*core.Result, error) {
			cfg := baseConfig(o, model, d.Name, seed)
			cfg.Model = model
			cfg.Variant = core.VariantSC
			res, err := core.RunContext(ctx, d, cfg)
			if err != nil {
				return nil, err
			}
			res.Method = model
			return res, nil
		})
}

// SamplerNames is the Table 4 row order.
func SamplerNames() []string { return []string{"random", "uncertain", "seu"} }

// SamplerAblation runs Table 4: DataSculpt-SC with each query-selection
// strategy.
func SamplerAblation(o Options) (*Grid, error) {
	return SamplerAblationContext(context.Background(), o)
}

// SamplerAblationContext is SamplerAblation with cancellation.
func SamplerAblationContext(ctx context.Context, o Options) (*Grid, error) {
	o = o.normalized()
	o.logf("== sampler ablation (Table 4)")
	return sweep(ctx, o, "Table 4: ablation study using different samplers", SamplerNames(),
		func(ctx context.Context, smp string, d *dataset.Dataset, seed int) (*core.Result, error) {
			cfg := baseConfig(o, smp, d.Name, seed)
			cfg.Variant = core.VariantSC
			cfg.Sampler = smp
			res, err := core.RunContext(ctx, d, cfg)
			if err != nil {
				return nil, err
			}
			res.Method = smp
			return res, nil
		})
}

// FilterNames is the Table 5 row order.
func FilterNames() []string { return []string{"all", "no accuracy", "no redundancy"} }

// FilterAblation runs Table 5: DataSculpt-SC with filter subsets.
func FilterAblation(o Options) (*Grid, error) {
	return FilterAblationContext(context.Background(), o)
}

// FilterAblationContext is FilterAblation with cancellation.
func FilterAblationContext(ctx context.Context, o Options) (*Grid, error) {
	o = o.normalized()
	o.logf("== filter ablation (Table 5)")
	configs := map[string]lf.FilterConfig{
		"all":           {UseAccuracy: true, UseRedundancy: true},
		"no accuracy":   {UseAccuracy: false, UseRedundancy: true},
		"no redundancy": {UseAccuracy: true, UseRedundancy: false},
	}
	return sweep(ctx, o, "Table 5: ablation study using different LF filters", FilterNames(),
		func(ctx context.Context, name string, d *dataset.Dataset, seed int) (*core.Result, error) {
			cfg := baseConfig(o, name, d.Name, seed)
			cfg.Variant = core.VariantSC
			cfg.Filters = configs[name]
			res, err := core.RunContext(ctx, d, cfg)
			if err != nil {
				return nil, err
			}
			res.Method = name
			return res, nil
		})
}
