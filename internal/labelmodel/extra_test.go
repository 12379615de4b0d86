package labelmodel

import (
	"math"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
)

func TestDawidSkeneRecovers(t *testing.T) {
	accs := []float64{0.9, 0.8, 0.85, 0.75}
	covs := []float64{0.5, 0.5, 0.5, 0.5}
	vm, gold := synthVotes(t, 21, 4000, 2, accs, covs)
	m := NewDawidSkene()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	proba := m.PredictProba(vm)
	checkProbaInvariants(t, proba, 2)
	if acc := posteriorAccuracy(proba, gold); acc < 0.85 {
		t.Errorf("dawid-skene posterior accuracy = %v", acc)
	}
	// the fitted diagonal should roughly match the true accuracies
	for j, a := range accs {
		diag := (m.Confusion()[j][0][0] + m.Confusion()[j][1][1]) / 2
		if math.Abs(diag-a) > 0.15 {
			t.Errorf("lf %d diag = %v, true %v", j, diag, a)
		}
	}
}

func TestDawidSkeneAsymmetricLF(t *testing.T) {
	// An LF that is near-perfect on class 0 but coin-flip on class 1:
	// the confusion model should capture the asymmetry.
	n := 6000
	examples := make([]*dataset.Example, n)
	gold := make([]int, n)
	votes := make(map[*dataset.Example]int, n)
	votes2 := make(map[*dataset.Example]int, n)
	rng := newTestRNG(31)
	for i := range examples {
		gold[i] = rng.Intn(2)
		examples[i] = &dataset.Example{ID: i, Tokens: []string{"d"}, Label: gold[i], E1Pos: -1, E2Pos: -1}
		// asymmetric LF
		if gold[i] == 0 {
			if rng.Float64() < 0.95 {
				votes[examples[i]] = 0
			} else {
				votes[examples[i]] = 1
			}
		} else {
			votes[examples[i]] = rng.Intn(2)
		}
		// a clean symmetric companion so EM can anchor the latent classes
		if rng.Float64() < 0.9 {
			votes2[examples[i]] = gold[i]
		} else {
			votes2[examples[i]] = 1 - gold[i]
		}
	}
	lfs := []lf.LabelFunction{
		&lf.AnnotationLF{LFName: "asym", Votes: votes},
		&lf.AnnotationLF{LFName: "clean", Votes: votes2},
	}
	vm := lf.BuildVoteMatrix(lf.NewIndex(examples), lfs)
	m := NewDawidSkene()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	conf := m.Confusion()[0]
	if conf[0][0] < 0.85 {
		t.Errorf("class-0 row = %v, want near-diagonal", conf[0])
	}
	if conf[1][1] > 0.8 {
		t.Errorf("class-1 row = %v, want noisy (~0.5)", conf[1])
	}
}

func TestDawidSkeneRejects(t *testing.T) {
	vm, _ := synthVotes(t, 22, 50, 2, []float64{0.9}, []float64{0})
	if err := NewDawidSkene().Fit(vm, 2); err == nil {
		t.Error("zero coverage accepted")
	}
	if err := NewDawidSkene().Fit(vm, 1); err == nil {
		t.Error("single class accepted")
	}
}

func TestWeightedVote(t *testing.T) {
	accs := []float64{0.95, 0.6, 0.6}
	covs := []float64{0.7, 0.7, 0.7}
	vm, gold := synthVotes(t, 23, 4000, 2, accs, covs)

	// weighted vote with the TRUE accuracies must beat plain majority
	wv := NewWeightedVote(accs)
	if err := wv.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	mv := NewMajorityVote()
	if err := mv.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	wAcc := posteriorAccuracy(wv.PredictProba(vm), gold)
	mAcc := posteriorAccuracy(mv.PredictProba(vm), gold)
	if wAcc <= mAcc {
		t.Errorf("weighted %v should beat majority %v", wAcc, mAcc)
	}
	checkProbaInvariants(t, wv.PredictProba(vm), 2)
}

func TestWeightedVoteShapeChecks(t *testing.T) {
	vm, _ := synthVotes(t, 24, 100, 2, []float64{0.9, 0.8}, []float64{0.5, 0.5})
	wv := NewWeightedVote([]float64{0.9}) // wrong length
	if err := wv.Fit(vm, 2); err == nil {
		t.Error("accuracy-count mismatch accepted")
	}
}

func TestWeightedVoteFromValidation(t *testing.T) {
	valid := []*dataset.Example{}
	for i, tc := range []struct {
		text  string
		label int
	}{
		{"free cash now", 1},
		{"free cash offer", 1},
		{"free hugs", 0},
		{"nice melody", 0},
		{"great melody here", 0},
	} {
		e := &dataset.Example{ID: i, Text: tc.text, Label: tc.label, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		valid = append(valid, e)
	}
	free, _ := lf.NewKeywordLF("free", 1)
	melody, _ := lf.NewKeywordLF("melody", 0)
	ghost, _ := lf.NewKeywordLF("unseen", 1)
	wv := NewWeightedVoteFromValidationIndexed(lf.NewIndex(valid), []lf.LabelFunction{free, melody, ghost})
	// free: 2/3 correct -> smoothed (2+1)/(3+2) = 0.6
	if math.Abs(wv.Accuracies[0]-0.6) > 1e-9 {
		t.Errorf("free accuracy = %v, want 0.6", wv.Accuracies[0])
	}
	// melody: 2/2 -> (2+1)/(2+2) = 0.75
	if math.Abs(wv.Accuracies[1]-0.75) > 1e-9 {
		t.Errorf("melody accuracy = %v, want 0.75", wv.Accuracies[1])
	}
	// inactive LF gets the neutral 0.5
	if wv.Accuracies[2] != 0.5 {
		t.Errorf("ghost accuracy = %v, want 0.5", wv.Accuracies[2])
	}
}

// TestWeightedVoteFromValidationIndexed: repeat fits against one shared
// index must produce exactly the accuracies of a fit over a fresh index —
// the index is a pure accelerator, reused across fits.
func TestWeightedVoteFromValidationIndexed(t *testing.T) {
	valid := []*dataset.Example{}
	for i, tc := range []struct {
		text  string
		label int
	}{
		{"free cash now", 1},
		{"free cash offer", 1},
		{"free hugs", 0},
		{"nice melody", 0},
	} {
		e := &dataset.Example{ID: i, Text: tc.text, Label: tc.label, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		valid = append(valid, e)
	}
	free, _ := lf.NewKeywordLF("free", 1)
	melody, _ := lf.NewKeywordLF("melody", 0)
	lfs := []lf.LabelFunction{free, melody}
	want := NewWeightedVoteFromValidationIndexed(lf.NewIndex(valid), lfs)
	ix := lf.NewIndex(valid)
	for fit := 0; fit < 3; fit++ { // the shared index serves repeat fits
		got := NewWeightedVoteFromValidationIndexed(ix, lfs)
		for j := range want.Accuracies {
			if got.Accuracies[j] != want.Accuracies[j] {
				t.Fatalf("fit %d: accuracy[%d] = %v, want %v", fit, j, got.Accuracies[j], want.Accuracies[j])
			}
		}
	}
}

// newTestRNG avoids importing math/rand in multiple test files directly.
func newTestRNG(seed int64) *testRNG {
	return &testRNG{state: uint64(seed)*2862933555777941757 + 3037000493}
}

type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state = r.state*2862933555777941757 + 3037000493
	return r.state
}

func (r *testRNG) Intn(n int) int { return int(r.next() >> 33 % uint64(n)) }

func (r *testRNG) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }
