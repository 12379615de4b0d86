package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/textproc"
)

// countingLabelModel decorates a LabelModel and counts Fit calls — the
// probe for the interim-cache and incremental-matrix behavior.
type countingLabelModel struct {
	labelmodel.LabelModel
	fits *int
}

func (c countingLabelModel) Fit(vm *lf.VoteMatrix, k int) error {
	*c.fits++
	return c.LabelModel.Fit(vm, k)
}

// testEvaluator builds an evaluator over a small real dataset plus a
// stock of keyword LFs drawn from the corpus' frequent tokens.
func testEvaluator(t *testing.T, workers int) (*evaluator, []lf.LabelFunction) {
	t.Helper()
	d, err := dataset.Load("youtube", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantBase)
	cfg.FeatureDim = 1024
	cfg.EndModel.Epochs = 2
	cfg.Parallelism = workers
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	feat := textproc.NewFeaturizer(cfg.FeatureDim)
	feat.Workers = workers
	if err := feat.Fit(dataset.FeatureCorpus(d.Train)); err != nil {
		t.Fatal(err)
	}
	ev := &evaluator{
		d: d, feat: feat, trainIx: lf.NewIndex(d.Train), cfg: cfg,
		workers: workers, em: newEvalMetrics(nil),
	}

	counts := map[string]int{}
	for _, e := range d.Train {
		e.EnsureTokens()
		for _, tok := range e.Tokens {
			counts[tok]++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		if len(w) >= 4 {
			words = append(words, w)
		}
	}
	sort.Slice(words, func(i, j int) bool {
		if counts[words[i]] != counts[words[j]] {
			return counts[words[i]] > counts[words[j]]
		}
		return words[i] < words[j]
	})
	if len(words) > 12 {
		words = words[:12]
	}
	var lfs []lf.LabelFunction
	for i, w := range words {
		f, err := lf.NewKeywordLF(w, i%d.NumClasses())
		if err != nil {
			t.Fatal(err)
		}
		lfs = append(lfs, f)
	}
	return ev, lfs
}

// TestInterimCacheSkipsRefit: an interim refresh with an unchanged LF
// set must serve cached posteriors (zero additional Fit calls); a grown
// set must refit exactly once.
func TestInterimCacheSkipsRefit(t *testing.T) {
	ev, lfs := testEvaluator(t, 1)
	fits := 0
	ev.wrapLabelModel = func(lm labelmodel.LabelModel) labelmodel.LabelModel {
		return countingLabelModel{LabelModel: lm, fits: &fits}
	}
	rng := rand.New(rand.NewSource(1))

	end1, lm1, err := ev.interimTrainProba(noSpan, lfs[:6], rng)
	if err != nil {
		t.Fatal(err)
	}
	if fits != 1 {
		t.Fatalf("first interim ran %d fits, want 1", fits)
	}
	end2, lm2, err := ev.interimTrainProba(noSpan, lfs[:6], rng)
	if err != nil {
		t.Fatal(err)
	}
	if fits != 1 {
		t.Fatalf("unchanged LF set re-ran the fit (%d total fits, want 1)", fits)
	}
	// Cached posteriors are the same data, not merely similar.
	if &end1[0] != &end2[0] || &lm1[0] != &lm2[0] {
		t.Fatal("interim cache returned different slices for an unchanged LF set")
	}
	if _, _, err := ev.interimTrainProba(noSpan, lfs[:9], rng); err != nil {
		t.Fatal(err)
	}
	if fits != 2 {
		t.Fatalf("grown LF set ran %d total fits, want 2", fits)
	}
}

// TestVoteMatrixIncrementalReuse: successive trainProba calls over a
// growing LF set must only evaluate the appended columns, and the cached
// matrix must match a from-scratch build.
func TestVoteMatrixIncrementalReuse(t *testing.T) {
	ev, lfs := testEvaluator(t, 1)
	for _, cut := range []int{3, 7, len(lfs)} {
		if _, _, err := ev.trainProba(noSpan, lfs[:cut]); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.vm.NumLFs(); got != len(lfs) {
		t.Fatalf("cached matrix has %d columns, want %d", got, len(lfs))
	}
	scratch := lf.BuildVoteMatrix(ev.trainIx, lfs)
	for j := 0; j < scratch.NumLFs(); j++ {
		gi, gv := ev.vm.Active(j)
		wi, wv := scratch.Active(j)
		if !slices.Equal(gi, wi) || !slices.Equal(gv, wv) {
			t.Fatalf("cached column %d diverges from scratch build", j)
		}
	}
}

// TestVoteMatrixRebuildOnPrefixChange: a mutated (non-append-only) LF
// set must fall back to a full rebuild and still be correct.
func TestVoteMatrixRebuildOnPrefixChange(t *testing.T) {
	ev, lfs := testEvaluator(t, 1)
	if _, _, err := ev.trainProba(noSpan, lfs[:5]); err != nil {
		t.Fatal(err)
	}
	// Reordered set: same LFs, different prefix names.
	mutated := append([]lf.LabelFunction{lfs[5]}, lfs[:5]...)
	if _, _, err := ev.trainProba(noSpan, mutated); err != nil {
		t.Fatal(err)
	}
	scratch := lf.BuildVoteMatrix(ev.trainIx, mutated)
	if ev.vm.NumLFs() != scratch.NumLFs() {
		t.Fatalf("rebuilt matrix has %d columns, want %d", ev.vm.NumLFs(), scratch.NumLFs())
	}
	for j := 0; j < scratch.NumLFs(); j++ {
		if ev.vm.Names()[j] != scratch.Names()[j] {
			t.Fatalf("rebuilt column %d named %q, want %q", j, ev.vm.Names()[j], scratch.Names()[j])
		}
		gi, gv := ev.vm.Active(j)
		wi, wv := scratch.Active(j)
		if !slices.Equal(gi, wi) || !slices.Equal(gv, wv) {
			t.Fatalf("rebuilt column %d diverges from scratch build", j)
		}
	}
}

// TestRunParallelismMatchesSequential is the PR's determinism hard
// constraint end to end: a full uncertain-sampler run with
// Parallelism: N must be bit-identical to Parallelism: 1 — same LF set,
// same coverage statistics, same end metric, same token accounting.
func TestRunParallelismMatchesSequential(t *testing.T) {
	run := func(parallelism int) *Result {
		return smallRun(t, "youtube", func(c *Config) {
			c.Sampler = "uncertain"
			c.Parallelism = parallelism
		})
	}
	seq := run(1)
	for _, p := range []int{2, 4} {
		par := run(p)
		if seq.NumLFs != par.NumLFs ||
			seq.EndMetric != par.EndMetric ||
			seq.LFCoverage != par.LFCoverage ||
			seq.TotalCoverage != par.TotalCoverage ||
			seq.LFAccuracy != par.LFAccuracy ||
			seq.TotalTokens() != par.TotalTokens() {
			t.Fatalf("Parallelism %d diverged from sequential:\nseq: %+v\npar: %+v", p, seq, par)
		}
		for i := range seq.LFs {
			if seq.LFs[i].Name() != par.LFs[i].Name() {
				t.Fatalf("Parallelism %d: LF %d is %q, sequential %q",
					p, i, par.LFs[i].Name(), seq.LFs[i].Name())
			}
		}
	}
}
