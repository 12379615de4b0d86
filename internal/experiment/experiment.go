// Package experiment reproduces every table and figure of the paper's
// evaluation section: multi-seed runners for the main comparison (Table
// 2), the token/cost analysis (Figures 3-4) and the three ablations
// (Tables 3-5), plus text renderers that print the same rows the paper
// reports and the paper's own averages for side-by-side comparison.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
)

// Options parameterizes an experiment sweep. Zero values select the
// paper's protocol: 5 seeds, full-scale datasets, 50 iterations, GPT-3.5.
type Options struct {
	// Seeds is the number of repetitions averaged per cell (paper: 5).
	Seeds int
	// Scale multiplies every split's size: 1 (the default) is Table 1,
	// below 1 shrinks the datasets for quick runs, above 1 grows them.
	Scale float64
	// Datasets selects a subset (default: all six, paper order).
	Datasets []string
	// Iterations is the number of DataSculpt query instances (paper: 50).
	Iterations int
	// Model is the default LLM (paper: gpt-3.5).
	Model string
	// Workers bounds how many (method, dataset, seed) cells run
	// concurrently (default: runtime.GOMAXPROCS(0); 1 recovers the old
	// serial behavior). The grid is byte-identical at any worker count —
	// every cell owns its RNGs and simulated endpoint, and results are
	// committed by cell index, not completion order.
	Workers int
	// Parallelism is each cell's intra-run worker count
	// (core.Config.Parallelism). The default is 1 — grid cells already
	// saturate the machine through Workers, and nesting parallelism
	// would oversubscribe it — but a sweep of a few expensive cells can
	// raise it. Results are bit-identical at any setting.
	Parallelism int
	// KeepGoing records per-cell errors in the grid instead of
	// fail-fast cancellation, so one broken cell cannot void an
	// overnight sweep. Failed cells render as zeros; inspect them with
	// Grid.Err.
	KeepGoing bool
	// Checkpoint, when set, appends every completed cell to this JSONL
	// file (see checkpoint.go) so an interrupted sweep can be resumed.
	Checkpoint string
	// ResumeFrom, when set, loads a checkpoint file and skips cells
	// already recorded for this sweep's title; their stored results
	// enter the grid as if just computed. May name the same file as
	// Checkpoint — new cells are then appended after the restored ones.
	ResumeFrom string
	// MaxFailedIterations is passed through to every DataSculpt cell as
	// the pipeline's iteration failure budget (see
	// core.Config.MaxFailedIterations; 0 = strict paper mode).
	MaxFailedIterations int
	// Chaos, when non-nil, wraps every DataSculpt cell's LLM endpoint
	// in a deterministic fault injector under retry middleware (see
	// ChaosConfig). Baseline methods (WRENCH, ScriptoriumWS,
	// PromptedLF) build their endpoints internally and are unaffected.
	Chaos *ChaosConfig
	// Log receives progress lines (nil: silent).
	Log io.Writer
	// Obs is the telemetry bundle for the sweep (nil: all telemetry
	// disabled). The runner emits one `cell` span per (method, dataset,
	// seed) with the pipeline's run span nested underneath, maintains
	// the grid_* live-progress metrics (cells done/failed, per-cell
	// duration histogram, busy-worker gauge) in Obs.Metrics, and logs
	// per-cell completion through Obs.Logger.
	Obs *obs.Obs
}

func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		o.Seeds = 5
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Datasets) == 0 {
		// default to the paper's canonical six so the tables stay
		// comparable; bonus datasets (trec) opt in via -datasets
		o.Datasets = dataset.PaperNames()
	}
	if o.Iterations <= 0 {
		o.Iterations = 50
	}
	if o.Model == "" {
		o.Model = "gpt-3.5"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.Obs == nil {
		o.Obs = obs.Default()
	}
	return o
}

// logMu serializes progress lines from concurrent workers so interleaved
// writes cannot shear a line.
var logMu sync.Mutex

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// datasetSeed derives the corpus seed for repetition s.
func datasetSeed(s int) int64 { return int64(7000 + 13*s) }

// Stats is the per-cell aggregate over seeds: the mean of every Table 2
// metric plus the usage accounting of Figures 3-4.
type Stats struct {
	NumLFs     float64
	LFAcc      float64
	LFAccKnown bool
	LFCov      float64
	TotalCov   float64
	EM         float64
	MetricName string

	PromptTokens     float64
	CompletionTokens float64
	CostUSD          float64
	Runs             int
}

// TotalTokens returns mean prompt+completion tokens per run.
func (s Stats) TotalTokens() float64 { return s.PromptTokens + s.CompletionTokens }

// meanStats averages run results.
func meanStats(rs []*core.Result) Stats {
	var out Stats
	if len(rs) == 0 {
		return out
	}
	n := float64(len(rs))
	accKnown := 0
	for _, r := range rs {
		out.NumLFs += float64(r.NumLFs) / n
		out.LFCov += r.LFCoverage / n
		out.TotalCov += r.TotalCoverage / n
		out.EM += r.EndMetric / n
		out.PromptTokens += float64(r.PromptTokens) / n
		out.CompletionTokens += float64(r.CompletionTokens) / n
		out.CostUSD += r.CostUSD / n
		if r.LFAccuracyKnown {
			out.LFAcc += r.LFAccuracy
			accKnown++
		}
		out.MetricName = r.MetricName
	}
	if accKnown > 0 {
		out.LFAcc /= float64(accKnown)
		out.LFAccKnown = true
	}
	out.Runs = len(rs)
	return out
}

// Grid is a methods × datasets result matrix: each cell's mean over
// seeds, plus the per-seed results behind it.
type Grid struct {
	Title    string
	Methods  []string
	Datasets []string
	Cells    map[string]map[string]Stats // method -> dataset -> stats
	// Seeds holds each cell's per-seed results (index seed-1, nil where
	// the seed failed) in their checkpoint form: statistics only, without
	// the LF set, rejection counts or trained artifacts.
	Seeds map[string]map[string][]*core.Result
	// Errors holds per-cell failures recorded under Options.KeepGoing
	// (seed errors of one cell are joined). Cells present in Errors may
	// still carry Stats averaged over the seeds that succeeded.
	Errors map[string]map[string]error
}

func newGrid(title string, methods, datasets []string) *Grid {
	g := &Grid{Title: title, Methods: methods, Datasets: datasets,
		Cells:  make(map[string]map[string]Stats),
		Seeds:  make(map[string]map[string][]*core.Result),
		Errors: make(map[string]map[string]error)}
	for _, m := range methods {
		g.Cells[m] = make(map[string]Stats)
		g.Seeds[m] = make(map[string][]*core.Result)
		g.Errors[m] = make(map[string]error)
	}
	return g
}

// Set stores a cell.
func (g *Grid) Set(method, ds string, s Stats) { g.Cells[method][ds] = s }

// Get fetches a cell.
func (g *Grid) Get(method, ds string) (Stats, bool) {
	s, ok := g.Cells[method][ds]
	return s, ok
}

// SetErr records a cell failure (KeepGoing mode).
func (g *Grid) SetErr(method, ds string, err error) {
	if g.Errors[method] == nil {
		g.Errors[method] = make(map[string]error)
	}
	g.Errors[method][ds] = err
}

// Err returns the recorded failure of a cell, or nil.
func (g *Grid) Err(method, ds string) error { return g.Errors[method][ds] }

// FailedCells counts cells with a recorded error.
func (g *Grid) FailedCells() int {
	n := 0
	for _, row := range g.Errors {
		n += len(row)
	}
	return n
}

// Avg computes the across-dataset average of one metric for a method,
// skipping datasets where the metric is undefined (LF accuracy on
// Spouse), exactly as the paper's AVG column does.
func (g *Grid) Avg(method string, metric func(Stats) (float64, bool)) (float64, bool) {
	var sum float64
	var n int
	for _, ds := range g.Datasets {
		s, ok := g.Get(method, ds)
		if !ok {
			continue
		}
		if v, defined := metric(s); defined {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Metric accessors shared by renderers and tests.
var (
	// MetricNumLFs extracts the LF-set size.
	MetricNumLFs = func(s Stats) (float64, bool) { return s.NumLFs, true }
	// MetricLFAcc extracts mean LF accuracy where defined.
	MetricLFAcc = func(s Stats) (float64, bool) { return s.LFAcc, s.LFAccKnown }
	// MetricLFCov extracts mean per-LF coverage.
	MetricLFCov = func(s Stats) (float64, bool) { return s.LFCov, true }
	// MetricTotalCov extracts total coverage.
	MetricTotalCov = func(s Stats) (float64, bool) { return s.TotalCov, true }
	// MetricEM extracts end-model accuracy/F1.
	MetricEM = func(s Stats) (float64, bool) { return s.EM, true }
	// MetricTokens extracts mean total tokens.
	MetricTokens = func(s Stats) (float64, bool) { return s.TotalTokens(), true }
	// MetricCost extracts mean dollar cost.
	MetricCost = func(s Stats) (float64, bool) { return s.CostUSD, true }
)
