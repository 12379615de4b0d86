// Command benchtab regenerates every table and figure of the paper's
// evaluation section:
//
//	benchtab -table 1          # dataset statistics
//	benchtab -table 2          # main comparison (LF stats + end model)
//	benchtab -figure 3         # token usage
//	benchtab -figure 4         # API cost
//	benchtab -table 3          # LLM ablation
//	benchtab -table 4          # sampler ablation
//	benchtab -table 5          # filter ablation
//	benchtab -all              # everything
//
// By default it runs the paper's protocol (full-size datasets, 5 seeds,
// 50 iterations); -scale and -seeds trade fidelity for speed. Figures 3
// and 4 reuse the Table 2 runs, so `-all` computes them once.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"datasculpt/internal/experiment"
	"datasculpt/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-5)")
	figure := flag.Int("figure", 0, "figure number to regenerate (3 or 4)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	seeds := flag.Int("seeds", 5, "random seeds per configuration")
	scale := flag.Float64("scale", 1.0, "dataset scale in (0,1]")
	iterations := flag.Int("iterations", 50, "DataSculpt query iterations")
	model := flag.String("model", "gpt-3.5", "default LLM profile")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all)")
	workers := flag.Int("workers", 0, "concurrent grid cells (0 = GOMAXPROCS, 1 = serial; results identical)")
	parallelism := flag.Int("parallelism", 0, "evaluation-engine workers inside each cell (0 = 1, serial per cell; results identical)")
	keepGoing := flag.Bool("keep-going", false, "record per-cell failures in the grid instead of aborting the sweep")
	checkpoint := flag.String("checkpoint", "", "append each completed grid cell to this JSONL file (resumable with -resume)")
	resume := flag.String("resume", "", "skip grid cells already recorded in this checkpoint file (may equal -checkpoint)")
	maxFailedIters := flag.Int("max-failed-iterations", 0, "per-run iteration failure budget (0 = strict, -1 = unlimited)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	compare := flag.Bool("compare", true, "print paper-vs-reproduction averages")
	markdown := flag.String("markdown", "", "also write a markdown report (EXPERIMENTS.md format) to this path; implies -all")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	traceOut := flag.String("trace-out", "", "stream one JSON span per line (cell > run > iteration > stage) to this file")
	metricsOut := flag.String("metrics-out", "", "write final metrics here on exit (Prometheus text; JSON if the path ends in .json)")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address; watch grid_cells_done_total for live sweep progress")
	flag.Parse()

	opts := experiment.Options{
		Seeds:               *seeds,
		Scale:               *scale,
		Iterations:          *iterations,
		Model:               *model,
		Workers:             *workers,
		Parallelism:         *parallelism,
		KeepGoing:           *keepGoing,
		Checkpoint:          *checkpoint,
		ResumeFrom:          *resume,
		MaxFailedIterations: *maxFailedIters,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}

	if *markdown != "" {
		*all = true
	}
	o, cleanup, err := obs.Setup(obs.SetupConfig{
		LogLevel:    *logLevel,
		TracePath:   *traceOut,
		MetricsPath: *metricsOut,
		DebugAddr:   *debugAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	opts.Obs = o
	// Ctrl-C cancels every in-flight cell instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runErr := run(ctx, opts, *table, *figure, *all, *compare, *markdown)
	// The cleanup writes -metrics-out and flushes the trace sink, so it
	// must run (and be checked) even when the sweep itself failed.
	if cerr := cleanup(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts experiment.Options, table, figure int, all, compare bool, markdown string) error {
	// The paper's tables are defined up to Table 1 size; Options would
	// grow the datasets past it.
	if opts.Scale <= 0 || opts.Scale > 1 {
		return fmt.Errorf("-scale must be in (0,1], got %g", opts.Scale)
	}
	var main *experiment.Grid
	ablations := make([]*experiment.Grid, len(experiment.Ablations))
	needMain := all || table == 2 || figure == 3 || figure == 4

	if all || table == 1 {
		out, err := experiment.RenderTable1(opts)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if needMain {
		g, err := experiment.MainResultsContext(ctx, opts)
		if err != nil {
			return err
		}
		main = g
	}
	if all || table == 2 {
		fmt.Println(experiment.RenderGrid(main))
		if compare {
			fmt.Println(experiment.RenderPaperComparison(main, experiment.PaperTable2))
		}
	}
	if all || figure == 3 {
		fmt.Println(experiment.RenderFigure3(main))
	}
	if all || figure == 4 {
		fmt.Println(experiment.RenderFigure4(main))
	}
	for i, a := range experiment.Ablations {
		if !all && table != a.Table {
			continue
		}
		g, err := experiment.AblationContext(ctx, opts, a)
		if err != nil {
			return err
		}
		ablations[i] = g
		fmt.Println(experiment.RenderGrid(g))
		if compare {
			fmt.Println(experiment.RenderPaperComparison(g, a.Paper))
		}
	}
	if markdown != "" {
		report := experiment.MarkdownReport(opts, main, ablations...)
		if err := os.WriteFile(markdown, []byte(report), 0o644); err != nil {
			return fmt.Errorf("writing markdown report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", markdown)
	}
	if !all && table == 0 && figure == 0 {
		return fmt.Errorf("nothing to do: pass -table N, -figure N or -all")
	}
	return nil
}
