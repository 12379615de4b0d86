package lf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"datasculpt/internal/dataset"
)

func randomSplit(rng *rand.Rand, vocab []string, n int) []*dataset.Example {
	split := make([]*dataset.Example, n)
	for i := range split {
		var words []string
		for w := 0; w < 2+rng.Intn(10); w++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		e := &dataset.Example{ID: i, Text: strings.Join(words, " "), E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		split[i] = e
	}
	return split
}

func randomLFs(t *testing.T, rng *rand.Rand, vocab []string, m int) []LabelFunction {
	t.Helper()
	lfs := make([]LabelFunction, 0, m)
	for len(lfs) < m {
		words := 1 + rng.Intn(2)
		parts := make([]string, words)
		for w := range parts {
			parts[w] = vocab[rng.Intn(len(vocab))]
		}
		phrase := strings.Join(parts, " ")
		class := rng.Intn(3)
		var (
			f   LabelFunction
			err error
		)
		switch rng.Intn(3) {
		case 0:
			f, err = NewKeywordLF(phrase, class)
		case 1:
			f, err = NewEntityKeywordLF(phrase, class)
		default:
			f, err = NewDisjunctionLF("p", []string{phrase, vocab[rng.Intn(len(vocab))]}, class, rng.Intn(2) == 0)
		}
		if err != nil {
			t.Fatalf("building LF: %v", err)
		}
		lfs = append(lfs, f)
	}
	return lfs
}

func matricesEqual(t *testing.T, got, want *VoteMatrix) bool {
	t.Helper()
	if got.NumExamples() != want.NumExamples() || got.NumLFs() != want.NumLFs() {
		t.Logf("shape %dx%d != %dx%d", got.NumExamples(), got.NumLFs(), want.NumExamples(), want.NumLFs())
		return false
	}
	for j := 0; j < want.NumLFs(); j++ {
		if got.Names()[j] != want.Names()[j] {
			t.Logf("name[%d] %q != %q", j, got.Names()[j], want.Names()[j])
			return false
		}
		gc, wc := denseColumn(got, j), denseColumn(want, j)
		for i := range wc {
			if gc[i] != wc[i] {
				t.Logf("vote[%d][%d] %d != %d", i, j, gc[i], wc[i])
				return false
			}
		}
		gids, gvotes := got.Active(j)
		wids, wvotes := want.Active(j)
		if len(gids) != len(wids) {
			t.Logf("active[%d] %d ids != %d", j, len(gids), len(wids))
			return false
		}
		for t2 := range wids {
			if gids[t2] != wids[t2] || gvotes[t2] != wvotes[t2] {
				t.Logf("active[%d][%d] (%d,%d) != (%d,%d)", j, t2, gids[t2], gvotes[t2], wids[t2], wvotes[t2])
				return false
			}
		}
	}
	return true
}

// TestIncrementalAppendMatchesScratchProperty is the invariant the
// evaluator's vote-matrix cache stands on: growing a matrix by appending
// LFs in arbitrary batch sizes (one at a time included) yields exactly
// the matrix BuildVoteMatrix produces from scratch, for any worker
// count. Run under -race this also stresses the parallel column
// evaluation in AppendLFs.
func TestIncrementalAppendMatchesScratchProperty(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "free", "cash",
		"prize", "song", "winner", "channel"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		split := randomSplit(rng, vocab, 20+rng.Intn(60))
		lfs := randomLFs(t, rng, vocab, 1+rng.Intn(12))
		ix := NewIndex(split)
		want := BuildVoteMatrix(ix, lfs)

		for _, workers := range []int{1, 4} {
			// One LF at a time — the per-iteration pipeline shape.
			one := NewVoteMatrix(ix.Size())
			for _, f := range lfs {
				one.AppendLFs(ix, []LabelFunction{f}, workers)
			}
			if !matricesEqual(t, one, want) {
				t.Logf("seed %d workers %d: one-at-a-time append diverged", seed, workers)
				return false
			}
			// Random batch sizes.
			batched := NewVoteMatrix(ix.Size())
			for lo := 0; lo < len(lfs); {
				hi := lo + 1 + rng.Intn(len(lfs)-lo)
				batched.AppendLFs(ix, lfs[lo:hi], workers)
				lo = hi
			}
			if !matricesEqual(t, batched, want) {
				t.Logf("seed %d workers %d: batched append diverged", seed, workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuildVoteMatrixParallelMatchesSequential pins the worker-count
// independence of the full build.
func TestBuildVoteMatrixParallelMatchesSequential(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "free", "cash"}
	rng := rand.New(rand.NewSource(42))
	split := randomSplit(rng, vocab, 200)
	lfs := randomLFs(t, rng, vocab, 30)
	ix := NewIndex(split)
	want := BuildVoteMatrix(ix, lfs)
	for _, workers := range []int{2, 3, 8, 0} {
		got := NewVoteMatrix(ix.Size())
		got.AppendLFs(ix, lfs, workers)
		if !matricesEqual(t, got, want) {
			t.Fatalf("workers=%d: parallel build diverged from sequential", workers)
		}
	}
}

// TestComputeStatsMatchesAccessors pins the single-pass Stats sweep to
// references computed from the dense columns and LFAccuracy, across
// worker counts.
func TestComputeStatsMatchesAccessors(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "free", "cash", "prize"}
	rng := rand.New(rand.NewSource(7))
	split := randomSplit(rng, vocab, 150)
	gold := make([]int, len(split))
	for i := range gold {
		if rng.Intn(5) == 0 {
			gold[i] = dataset.NoLabel
		} else {
			gold[i] = rng.Intn(3)
		}
	}
	lfs := randomLFs(t, rng, vocab, 20)
	vm := BuildVoteMatrix(NewIndex(split), lfs)

	var covSum, accSum float64
	graded := 0
	coveredBy := make([]bool, vm.NumExamples())
	for j := 0; j < vm.NumLFs(); j++ {
		active := 0
		for i, v := range denseColumn(vm, j) {
			if v != Abstain {
				active++
				coveredBy[i] = true
			}
		}
		covSum += float64(active) / float64(vm.NumExamples())
		if acc, n := vm.LFAccuracy(j, gold); n > 0 {
			accSum += acc
			graded++
		}
	}
	covered := 0
	for _, b := range coveredBy {
		if b {
			covered++
		}
	}
	wantCov := covSum / float64(vm.NumLFs())
	wantAcc, wantOK := accSum/float64(graded), graded > 0
	for _, workers := range []int{1, 4, 0} {
		s := vm.ComputeStats(gold, workers)
		if s.MeanCoverage != wantCov {
			t.Errorf("workers=%d: MeanCoverage %v != %v", workers, s.MeanCoverage, wantCov)
		}
		if s.TotalCoverage != vm.TotalCoverage() {
			t.Errorf("workers=%d: TotalCoverage %v != %v", workers, s.TotalCoverage, vm.TotalCoverage())
		}
		if s.CoveredCount != covered {
			t.Errorf("workers=%d: CoveredCount %d != %d", workers, s.CoveredCount, covered)
		}
		if s.MeanLFAccuracy != wantAcc || s.AccuracyKnown != wantOK {
			t.Errorf("workers=%d: MeanLFAccuracy (%v,%v) != (%v,%v)",
				workers, s.MeanLFAccuracy, s.AccuracyKnown, wantAcc, wantOK)
		}
	}
}
