package labelmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
)

// synthVotes builds a vote matrix from n examples with known gold labels
// and m simulated LFs with the given accuracies and coverages. Abstention
// is independent of the gold label, matching the models' assumption.
func synthVotes(t *testing.T, seed int64, n, k int, accs, covs []float64) (*lf.VoteMatrix, []int) {
	t.Helper()
	if len(accs) != len(covs) {
		t.Fatal("accs/covs length mismatch")
	}
	rng := rand.New(rand.NewSource(seed))
	examples := make([]*dataset.Example, n)
	gold := make([]int, n)
	for i := range examples {
		gold[i] = rng.Intn(k)
		examples[i] = &dataset.Example{
			ID:     i,
			Text:   fmt.Sprintf("doc %d", i),
			Tokens: []string{"doc", fmt.Sprint(i)},
			Label:  gold[i],
			E1Pos:  -1, E2Pos: -1,
		}
	}
	lfs := make([]lf.LabelFunction, len(accs))
	for j := range accs {
		votes := make(map[*dataset.Example]int, n)
		for i, e := range examples {
			if rng.Float64() >= covs[j] {
				continue
			}
			if rng.Float64() < accs[j] {
				votes[e] = gold[i]
			} else {
				wrong := rng.Intn(k - 1)
				if wrong >= gold[i] {
					wrong++
				}
				votes[e] = wrong
			}
		}
		lfs[j] = &lf.AnnotationLF{LFName: fmt.Sprintf("synth-%d", j), Votes: votes}
	}
	ix := lf.NewIndex(examples)
	return lf.BuildVoteMatrix(ix, lfs), gold
}

func posteriorAccuracy(proba [][]float64, gold []int) float64 {
	correct, covered := 0, 0
	for i, p := range proba {
		if p == nil {
			continue
		}
		covered++
		best := 0
		for c := 1; c < len(p); c++ {
			if p[c] > p[best] {
				best = c
			}
		}
		if best == gold[i] {
			correct++
		}
	}
	if covered == 0 {
		return 0
	}
	return float64(correct) / float64(covered)
}

func checkProbaInvariants(t *testing.T, proba [][]float64, k int) {
	t.Helper()
	for i, p := range proba {
		if p == nil {
			continue
		}
		if len(p) != k {
			t.Fatalf("proba[%d] has %d classes, want %d", i, len(p), k)
		}
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("proba[%d] = %v out of range", i, p)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("proba[%d] sums to %v", i, s)
		}
	}
}

func TestMajorityVoteBasic(t *testing.T) {
	vm, gold := synthVotes(t, 1, 500, 2, []float64{0.9, 0.8, 0.7}, []float64{0.5, 0.5, 0.5})
	m := NewMajorityVote()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	proba := m.PredictProba(vm)
	checkProbaInvariants(t, proba, 2)
	if acc := posteriorAccuracy(proba, gold); acc < 0.8 {
		t.Errorf("majority vote accuracy = %v, want >= 0.8", acc)
	}
}

func TestMajorityVoteUncoveredNil(t *testing.T) {
	vm, _ := synthVotes(t, 2, 300, 2, []float64{0.9}, []float64{0.3})
	m := NewMajorityVote()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	proba := m.PredictProba(vm)
	rows := vm.Rows()
	nilCount := 0
	for i, p := range proba {
		if p == nil {
			nilCount++
			// verify the example truly is uncovered
			if js, _ := rows.Row(i); len(js) > 0 {
				t.Fatalf("nil posterior for covered example %d", i)
			}
		}
	}
	if nilCount == 0 {
		t.Error("expected some uncovered examples at coverage 0.3")
	}
}

func TestMeTaLRecoversAccuracyOrdering(t *testing.T) {
	accs := []float64{0.95, 0.85, 0.7, 0.55}
	covs := []float64{0.4, 0.4, 0.4, 0.4}
	vm, gold := synthVotes(t, 3, 4000, 2, accs, covs)
	m := NewMeTaL()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	est := m.Accuracies()
	for j := 0; j < len(accs)-1; j++ {
		if est[j] <= est[j+1] {
			t.Errorf("estimated accuracies not ordered: %v (true %v)", est, accs)
			break
		}
	}
	for j, a := range accs {
		if math.Abs(est[j]-a) > 0.1 {
			t.Errorf("acc[%d] estimated %v, true %v", j, est[j], a)
		}
	}
	proba := m.PredictProba(vm)
	checkProbaInvariants(t, proba, 2)
	if acc := posteriorAccuracy(proba, gold); acc < 0.82 {
		t.Errorf("metal posterior accuracy = %v", acc)
	}
}

func TestMeTaLBeatsMajorityWithUnequalLFs(t *testing.T) {
	// One excellent LF drowned out by three mediocre ones: weighting by
	// learned accuracy must beat unweighted counting.
	accs := []float64{0.97, 0.6, 0.6, 0.6}
	covs := []float64{0.7, 0.7, 0.7, 0.7}
	vm, gold := synthVotes(t, 4, 5000, 2, accs, covs)

	mv := NewMajorityVote()
	if err := mv.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	mt := NewMeTaL()
	if err := mt.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	mvAcc := posteriorAccuracy(mv.PredictProba(vm), gold)
	mtAcc := posteriorAccuracy(mt.PredictProba(vm), gold)
	if mtAcc <= mvAcc {
		t.Errorf("metal %.4f should beat majority %.4f", mtAcc, mvAcc)
	}
}

func TestMeTaLMulticlass(t *testing.T) {
	accs := []float64{0.85, 0.8, 0.75, 0.7, 0.8}
	covs := []float64{0.3, 0.3, 0.3, 0.3, 0.3}
	vm, gold := synthVotes(t, 5, 6000, 4, accs, covs)
	m := NewMeTaL()
	if err := m.Fit(vm, 4); err != nil {
		t.Fatal(err)
	}
	proba := m.PredictProba(vm)
	checkProbaInvariants(t, proba, 4)
	if acc := posteriorAccuracy(proba, gold); acc < 0.75 {
		t.Errorf("4-class metal accuracy = %v", acc)
	}
}

func TestMeTaLNoCoverage(t *testing.T) {
	vm, _ := synthVotes(t, 6, 100, 2, []float64{0.9}, []float64{0})
	m := NewMeTaL()
	if err := m.Fit(vm, 2); err == nil {
		t.Error("fit succeeded with zero coverage")
	}
}

func TestMeTaLPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	vm, _ := synthVotes(t, 7, 10, 2, []float64{0.9}, []float64{0.5})
	NewMeTaL().PredictProba(vm)
}

func TestMeTaLMismatchedMatrixPanics(t *testing.T) {
	vm1, _ := synthVotes(t, 8, 200, 2, []float64{0.9, 0.8}, []float64{0.5, 0.5})
	vm2, _ := synthVotes(t, 9, 200, 2, []float64{0.9}, []float64{0.5})
	m := NewMeTaL()
	if err := m.Fit(vm1, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on LF-count mismatch")
		}
	}()
	m.PredictProba(vm2)
}

func TestTripletBinaryRecovery(t *testing.T) {
	accs := []float64{0.9, 0.8, 0.7, 0.85, 0.75}
	covs := []float64{0.6, 0.6, 0.6, 0.6, 0.6}
	vm, gold := synthVotes(t, 10, 6000, 2, accs, covs)
	m := NewTriplet()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	est := m.Accuracies()
	for j, a := range accs {
		if math.Abs(est[j]-a) > 0.12 {
			t.Errorf("triplet acc[%d] = %v, true %v", j, est[j], a)
		}
	}
	proba := m.PredictProba(vm)
	checkProbaInvariants(t, proba, 2)
	if acc := posteriorAccuracy(proba, gold); acc < 0.85 {
		t.Errorf("triplet posterior accuracy = %v", acc)
	}
}

func TestTripletRejectsMulticlass(t *testing.T) {
	vm, _ := synthVotes(t, 11, 100, 3, []float64{0.8}, []float64{0.5})
	if err := NewTriplet().Fit(vm, 3); err == nil {
		t.Error("triplet accepted 3-class task")
	}
}

func TestModelsAgreeOnCleanVotes(t *testing.T) {
	// With uniformly strong LFs all three models should label covered
	// examples nearly identically.
	accs := []float64{0.95, 0.95, 0.95}
	covs := []float64{0.8, 0.8, 0.8}
	vm, gold := synthVotes(t, 12, 2000, 2, accs, covs)
	models := []LabelModel{NewMajorityVote(), NewMeTaL(), NewTriplet()}
	for _, m := range models {
		if err := m.Fit(vm, 2); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		acc := posteriorAccuracy(m.PredictProba(vm), gold)
		if acc < 0.93 {
			t.Errorf("%s accuracy = %v on clean votes", m.Name(), acc)
		}
	}
}
