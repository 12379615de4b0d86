package labelmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
)

// denseVoteMatrix builds a vote matrix from a row-major table of votes
// (votes[i][j] is LF j's vote on example i, lf.Abstain to abstain).
func denseVoteMatrix(votes [][]int, nLF int) *lf.VoteMatrix {
	examples := make([]*dataset.Example, len(votes))
	for i := range examples {
		examples[i] = &dataset.Example{ID: i, Text: "doc", Tokens: []string{"doc"}, E1Pos: -1, E2Pos: -1}
	}
	lfs := make([]lf.LabelFunction, nLF)
	for j := range lfs {
		col := make(map[*dataset.Example]int)
		for i, e := range examples {
			if v := votes[i][j]; v != lf.Abstain {
				col[e] = v
			}
		}
		lfs[j] = &lf.AnnotationLF{LFName: fmt.Sprintf("col-%d", j), Votes: col}
	}
	return lf.BuildVoteMatrix(lf.NewIndex(examples), lfs)
}

// checkSameFit fails unless got and want carry bit-identical parameters,
// iteration counts and posteriors over vm.
func checkSameFit(t *testing.T, got, want *MeTaL, vm *lf.VoteMatrix) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.EMIterations() != want.EMIterations() {
		t.Fatalf("%d EM iterations, reference %d", got.EMIterations(), want.EMIterations())
	}
	if len(got.acc) != len(want.acc) {
		t.Fatalf("%d accuracies, reference %d", len(got.acc), len(want.acc))
	}
	for j := range want.acc {
		if !same(got.acc[j], want.acc[j]) {
			t.Fatalf("acc[%d] = %v, reference %v", j, got.acc[j], want.acc[j])
		}
	}
	if (got.theta == nil) != (want.theta == nil) {
		t.Fatal("propensity presence differs from the reference")
	}
	for j := range want.theta {
		for c := range want.theta[j] {
			if !same(got.theta[j][c], want.theta[j][c]) {
				t.Fatalf("theta[%d][%d] = %v, reference %v", j, c, got.theta[j][c], want.theta[j][c])
			}
		}
	}
	for c := range want.prior {
		if !same(got.prior[c], want.prior[c]) {
			t.Fatalf("prior[%d] = %v, reference %v", c, got.prior[c], want.prior[c])
		}
	}
	gp, wp := got.PredictProba(vm), want.predictProbaRowByRow(vm)
	for i := range wp {
		if (gp[i] == nil) != (wp[i] == nil) {
			t.Fatalf("row %d: coverage differs from the reference", i)
		}
		for c := range wp[i] {
			if !same(gp[i][c], wp[i][c]) {
				t.Fatalf("posterior[%d][%d] = %v, reference %v", i, c, gp[i][c], wp[i][c])
			}
		}
	}
}

// configure copies the hyperparameters of a template into a fresh model.
func configure(tmpl *MeTaL, workers int, warm *MeTaL) *MeTaL {
	m := *tmpl
	m.Workers = workers
	if warm != nil {
		m.WarmStart(warm)
	}
	return &m
}

// TestMeTaLPatternsMatchRowByRow pins the per-pattern E-step and
// PredictProba to the row-by-row reference across class counts, model
// variants, worker counts, and cold and warm starts.
func TestMeTaLPatternsMatchRowByRow(t *testing.T) {
	variants := map[string]*MeTaL{
		"default":       NewMeTaL(),
		"no-propensity": {MaxIter: 100, Tol: 1e-6},
		"suppress":      {MaxIter: 100, Tol: 1e-6, ModelPropensity: true, SuppressSingleClassVote: true},
		"learn-prior":   {MaxIter: 100, Tol: 1e-6, ModelPropensity: true, LearnPrior: true},
	}
	for _, k := range []int{2, 3, 4, 7} {
		for name, tmpl := range variants {
			t.Run(fmt.Sprintf("k%d/%s", k, name), func(t *testing.T) {
				accs := []float64{0.9, 0.7, 0.8, 0.6, 0.95, 0.75, 0.85, 0.65}
				covs := []float64{0.3, 0.1, 0.05, 0.2, 0.02, 0.15, 0.08, 0.4}
				vm, _ := synthVotes(t, int64(k)*17, 600, k, accs, covs)
				// The donor is fitted on the first half of the LF set, as
				// the pipeline's append-only refits warm-start.
				donor := NewMeTaL()
				half := denseVoteMatrix(rowsOf(vm, len(accs)/2), len(accs)/2)
				if err := donor.Fit(half, k); err != nil {
					t.Fatal(err)
				}
				for _, warm := range []*MeTaL{nil, donor} {
					ref := configure(tmpl, 1, warm)
					refErr := ref.fitRowByRow(vm, k)
					for _, workers := range []int{1, 2} {
						m := configure(tmpl, workers, warm)
						if err := m.Fit(vm, k); (err != nil) != (refErr != nil) {
							t.Fatalf("workers %d warm=%v: error %v, reference %v", workers, warm != nil, err, refErr)
						}
						if refErr == nil {
							checkSameFit(t, m, ref, vm)
						}
					}
				}
			})
		}
	}
}

// rowsOf returns the first nLF vote columns of vm as dense row-major
// votes (lf.Abstain where an LF is inactive).
func rowsOf(vm *lf.VoteMatrix, nLF int) [][]int {
	rows := vm.Rows()
	out := make([][]int, vm.NumExamples())
	for i := range out {
		out[i] = make([]int, nLF)
		for j := range out[i] {
			out[i][j] = lf.Abstain
		}
		js, vs := rows.Row(i)
		for t, j := range js {
			if int(j) < nLF {
				out[i][j] = int(vs[t])
			}
		}
	}
	return out
}

// TestGroupPatterns: rows share a pattern exactly when their (LF, vote)
// lists are equal, and each pattern's representative is its first row.
func TestGroupPatterns(t *testing.T) {
	a := lf.Abstain
	votes := [][]int{
		{0, a, 1},
		{a, a, a},
		{0, a, 1},
		{0, 1, a},
		{a, 0, 1},
		{0, 1, a},
		{1, a, 1},
	}
	pats := groupPatterns(denseVoteMatrix(votes, 3).Rows())
	wantOf := []int32{0, -1, 0, 1, 2, 1, 3}
	wantRep := []int32{0, 3, 4, 6}
	if fmt.Sprint(pats.of) != fmt.Sprint(wantOf) || fmt.Sprint(pats.rep) != fmt.Sprint(wantRep) {
		t.Fatalf("patterns of=%v rep=%v, want of=%v rep=%v", pats.of, pats.rep, wantOf, wantRep)
	}
}

// FuzzMeTaLPatterns turns arbitrary bytes into a small vote matrix and
// requires the per-pattern Fit and PredictProba to match the row-by-row
// reference bit for bit.
func FuzzMeTaLPatterns(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 0, 7, 7, 1, 2, 0, 9, 9, 4, 1})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 200)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := 2 + int(data[0]%6)   // 2..7 classes
		nLF := 1 + int(data[1]%6) // 1..6 LFs
		flags := data[2]
		data = data[3:]
		n := len(data) / nLF
		if n == 0 || n > 256 {
			return
		}
		votes := make([][]int, n)
		for i := range votes {
			votes[i] = make([]int, nLF)
			for j := range votes[i] {
				// Mostly abstains, so rows repeat patterns.
				if v := int(data[i*nLF+j]) % (k + 3); v < k {
					votes[i][j] = v
				} else {
					votes[i][j] = lf.Abstain
				}
			}
		}
		vm := denseVoteMatrix(votes, nLF)
		tmpl := &MeTaL{
			MaxIter:                 30,
			Tol:                     1e-6,
			ModelPropensity:         flags&1 == 0,
			SuppressSingleClassVote: flags&2 != 0,
			LearnPrior:              flags&4 != 0,
		}
		workers := 1 + int(flags>>3&1)
		var warm *MeTaL
		if flags&16 != 0 {
			warm = configure(tmpl, 1, nil)
			if warm.fitRowByRow(vm, k) != nil {
				warm = nil
			}
		}
		ref := configure(tmpl, 1, warm)
		refErr := ref.fitRowByRow(vm, k)
		m := configure(tmpl, workers, warm)
		if err := m.Fit(vm, k); (err != nil) != (refErr != nil) {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
		if refErr == nil {
			checkSameFit(t, m, ref, vm)
		}
	})
}
