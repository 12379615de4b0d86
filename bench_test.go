// Benchmarks of the experiment grid (serial vs parallel) and ablations
// of this reproduction's own design choices (DESIGN.md §5), each at a
// reduced scale (single seed, 15% split sizes) so the whole suite
// completes in minutes on one core. The paper's tables and figures are
// regenerated by `cmd/benchtab`, not here. Each ablation's report is
// emitted via b.Log, so `go test -bench . -v` prints it.
package datasculpt_test

import (
	"context"
	"fmt"
	"testing"

	"datasculpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/experiment"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
)

// benchOptions is the reduced-protocol sweep configuration of the grid
// benchmarks.
func benchOptions() experiment.Options {
	return experiment.Options{Seeds: 1, Scale: 0.15, Iterations: 50}
}

// gridBench measures one Table 2 sweep at the given worker count; run
// `go test -bench=Grid -benchtime=1x` to compare serial vs parallel
// wall-clock on the same grid.
func gridBench(b *testing.B, workers int) {
	b.Helper()
	o := benchOptions()
	o.Workers = workers
	for i := 0; i < b.N; i++ {
		g, err := experiment.MainResultsContext(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if g.FailedCells() != 0 {
			b.Fatalf("%d failed cells", g.FailedCells())
		}
	}
}

// BenchmarkGridSerial is the old engine's behavior: one cell at a time.
func BenchmarkGridSerial(b *testing.B) { gridBench(b, 1) }

// BenchmarkGridParallel runs the same grid over 8 workers; the resulting
// grid is byte-identical to BenchmarkGridSerial's. Speedup scales with
// available cores (on a single-core host the two benchmarks tie, which
// bounds the scheduler's overhead at ~zero).
func BenchmarkGridParallel(b *testing.B) { gridBench(b, 8) }

// ---- Reproduction design-choice ablations (DESIGN.md §5) ----

// ablationRun executes one pipeline configuration on one dataset at bench
// scale and returns the result.
func ablationRun(b *testing.B, dsName string, mutate func(*core.Config)) *core.Result {
	b.Helper()
	d, err := dataset.Load(dsName, 7013, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantSC)
	cfg.Seed = 101
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := core.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationLabelModels compares the three label models on the
// binary datasets (the triplet method is binary-only).
func BenchmarkAblationLabelModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, lm := range []string{"metal", "majority", "triplet"} {
			for _, ds := range []string{"youtube", "sms"} {
				res := ablationRun(b, ds, func(c *core.Config) { c.LabelModel = lm })
				report += fmt.Sprintf("  %-9s %-8s %s=%.3f (#LF %d)\n", lm, ds, res.MetricName, res.EndMetric, res.NumLFs)
			}
		}
		if i == 0 {
			b.Log("\nlabel model ablation:\n" + report)
		}
	}
}

// BenchmarkAblationSCSamples sweeps the self-consistency sample count.
func BenchmarkAblationSCSamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, n := range []int{1, 3, 10} {
			res := ablationRun(b, "youtube", func(c *core.Config) { c.SCSamples = n })
			report += fmt.Sprintf("  samples=%-3d #LF=%-4d acc=%.3f tokens=%d\n",
				n, res.NumLFs, res.EndMetric, res.TotalTokens())
		}
		if i == 0 {
			b.Log("\nself-consistency sample ablation:\n" + report)
		}
	}
}

// BenchmarkAblationAccuracyThreshold sweeps the accuracy-filter floor.
func BenchmarkAblationAccuracyThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			res := ablationRun(b, "youtube", func(c *core.Config) {
				c.Filters = lf.FilterConfig{UseAccuracy: true, UseRedundancy: true, AccuracyThreshold: th}
			})
			report += fmt.Sprintf("  threshold=%.1f #LF=%-4d LFacc=%s acc=%.3f\n",
				th, res.NumLFs, res.LFAccuracyString(), res.EndMetric)
		}
		if i == 0 {
			b.Log("\naccuracy-threshold ablation:\n" + report)
		}
	}
}

// BenchmarkAblationDefaultClass toggles the default-class mechanism on
// Spouse (paper §3.6 motivates it with exactly this dataset).
func BenchmarkAblationDefaultClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d1, err := dataset.Load("spouse", 7013, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(core.VariantSC)
		cfg.Seed = 101
		withDefault, err := core.Run(d1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		d2, err := dataset.Load("spouse", 7013, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		d2.DefaultClass = dataset.NoDefaultClass
		without, err := core.Run(d2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\ndefault-class ablation on spouse:\n  with default:    F1=%.3f\n  without default: F1=%.3f\n",
				withDefault.EndMetric, without.EndMetric)
		}
	}
}

// BenchmarkAblationShots sweeps the number of in-context examples.
func BenchmarkAblationShots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, shots := range []int{2, 4, 10} {
			res := ablationRun(b, "youtube", func(c *core.Config) { c.Shots = shots })
			report += fmt.Sprintf("  shots=%-3d #LF=%-4d acc=%.3f tokens=%d\n",
				shots, res.NumLFs, res.EndMetric, res.TotalTokens())
		}
		if i == 0 {
			b.Log("\nin-context shots ablation:\n" + report)
		}
	}
}

// BenchmarkAblationPropensityModel compares the full MeTaL variant against
// the classic abstain-uninformative model and the single-class-vote
// suppression variant on the imbalanced SMS dataset, where the
// differences are largest.
func BenchmarkAblationPropensityModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := dataset.Load("sms", 7013, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(core.VariantSC)
		cfg.Seed = 101
		res, err := core.Run(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ix := lf.NewIndex(d.Train)
		vm := lf.BuildVoteMatrix(ix, res.LFs)
		var report string
		for _, variant := range []struct {
			name  string
			model *labelmodel.MeTaL
		}{
			{"propensity (default)", labelmodel.NewMeTaL()},
			{"no propensity", &labelmodel.MeTaL{}},
			{"propensity, voteless", &labelmodel.MeTaL{ModelPropensity: true, SuppressSingleClassVote: true}},
		} {
			if err := variant.model.Fit(vm, d.NumClasses()); err != nil {
				b.Fatal(err)
			}
			proba := variant.model.PredictProba(vm)
			correct, covered := 0, 0
			gold := dataset.Labels(d.Train)
			for t, p := range proba {
				if p == nil || gold[t] < 0 {
					continue
				}
				covered++
				best := 0
				for c := 1; c < len(p); c++ {
					if p[c] > p[best] {
						best = c
					}
				}
				if best == gold[t] {
					correct++
				}
			}
			report += fmt.Sprintf("  %-22s train-label acc=%.3f over %d covered\n",
				variant.name, float64(correct)/float64(covered), covered)
		}
		if i == 0 {
			b.Log("\nlabel-model propensity ablation (sms):\n" + report)
		}
	}
}

// BenchmarkPipelineYoutube measures one full default pipeline run — the
// unit of work every grid cell repeats.
func BenchmarkPipelineYoutube(b *testing.B) {
	d, err := datasculpt.LoadDataset("youtube", 1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := datasculpt.DefaultConfig(datasculpt.VariantBase)
		cfg.Seed = int64(i + 1)
		if _, err := datasculpt.Run(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRevision measures the counterexample-revision pass
// (the paper's stated future work) against the plain pipeline.
func BenchmarkAblationRevision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := ablationRun(b, "youtube", nil)
		revised := ablationRun(b, "youtube", func(c *core.Config) {
			c.ReviseRejected = true
			c.MaxRevisions = 10
		})
		if i == 0 {
			b.Logf("\nrevision ablation (youtube):\n  plain:   #LF=%d acc=%.3f tokens=%d\n  revised: #LF=%d acc=%.3f tokens=%d\n",
				plain.NumLFs, plain.EndMetric, plain.TotalTokens(),
				revised.NumLFs, revised.EndMetric, revised.TotalTokens())
		}
	}
}

// BenchmarkAblationExtendedSamplers adds the two related-work samplers
// (QBC, core-set) to the paper's three — testing takeaway T3 beyond the
// strategies the paper evaluated.
func BenchmarkAblationExtendedSamplers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, smp := range []string{"random", "uncertain", "seu", "qbc", "coreset"} {
			res := ablationRun(b, "youtube", func(c *core.Config) { c.Sampler = smp })
			report += fmt.Sprintf("  %-10s #LF=%-4d acc=%.3f\n", smp, res.NumLFs, res.EndMetric)
		}
		if i == 0 {
			b.Log("\nextended sampler ablation (youtube):\n" + report)
		}
	}
}

// BenchmarkAblationExtraLabelModels adds Dawid-Skene and the
// validation-weighted vote to the label-model comparison.
func BenchmarkAblationExtraLabelModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, lm := range []string{"metal", "dawid-skene", "weighted", "majority"} {
			res := ablationRun(b, "youtube", func(c *core.Config) { c.LabelModel = lm })
			report += fmt.Sprintf("  %-12s acc=%.3f\n", lm, res.EndMetric)
		}
		if i == 0 {
			b.Log("\nextra label-model ablation (youtube):\n" + report)
		}
	}
}
