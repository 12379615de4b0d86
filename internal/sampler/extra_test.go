package sampler

import (
	"math/rand"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/textproc"
)

func TestQBCFallsBackToRandom(t *testing.T) {
	s := newState(t)
	rng := rand.New(rand.NewSource(1))
	var q QBC
	if got := q.Next(s, rng); got < 0 || got >= len(s.Used) {
		t.Errorf("fallback pick = %d", got)
	}
}

func TestQBCPicksMaxDisagreement(t *testing.T) {
	s := newState(t)
	rng := rand.New(rand.NewSource(2))
	n := len(s.Dataset.Train)
	end := make([][]float64, n)
	lm := make([][]float64, n)
	for i := 0; i < n; i++ {
		end[i] = []float64{0.8, 0.2}
		lm[i] = []float64{0.8, 0.2}
	}
	target := 31
	end[target] = []float64{0.9, 0.1}
	lm[target] = []float64{0.1, 0.9} // committee disagrees hard
	s.SetPosteriors(end, lm)
	var q QBC
	if got := q.Next(s, rng); got != target {
		t.Errorf("picked %d, want max-disagreement %d", got, target)
	}
	s.Used[target] = true
	if got := q.Next(s, rng); got == target {
		t.Error("picked a used instance")
	}
}

func TestQBCExhausted(t *testing.T) {
	s := newState(t)
	for i := range s.Used {
		s.Used[i] = true
	}
	if got := (QBC{}).Next(s, rand.New(rand.NewSource(3))); got != -1 {
		t.Errorf("exhausted pool = %d", got)
	}
}

func TestCoreSetSpreadsSelections(t *testing.T) {
	s := newState(t)
	rng := rand.New(rand.NewSource(4))
	// feature vectors for geometric selection
	feat := newFixtureFeaturizer(t, s)
	_ = feat
	cs := NewCoreSet()

	first := cs.Next(s, rng)
	if first < 0 {
		t.Fatal("no first pick")
	}
	s.Used[first] = true
	second := cs.Next(s, rng)
	if second < 0 || second == first {
		t.Fatalf("second pick = %d", second)
	}
	// the greedy pick maximizes distance to the queried set, so nearly
	// every other candidate must sit closer to the first point than it
	d2 := 1 - s.TrainVecs[second].Cosine(s.TrainVecs[first])
	closer := 0
	for i := range s.TrainVecs {
		if i == first || i == second {
			continue
		}
		if 1-s.TrainVecs[i].Cosine(s.TrainVecs[first]) < d2 {
			closer++
		}
	}
	if closer < len(s.TrainVecs)*3/4 {
		t.Errorf("core-set pick should be near-farthest; only %d/%d candidates are closer",
			closer, len(s.TrainVecs))
	}
}

func TestCoreSetFallsBackWithoutVectors(t *testing.T) {
	s := newState(t)
	if got := NewCoreSet().Next(s, rand.New(rand.NewSource(5))); got < 0 {
		t.Error("fallback failed")
	}
}

func TestByNameExtras(t *testing.T) {
	for _, name := range []string{"qbc", "coreset"} {
		smp, ok := ByName(name)
		if !ok || smp.Name() != name {
			t.Errorf("ByName(%s) = %v, %v", name, smp, ok)
		}
	}
}

// newFixtureFeaturizer fits a featurizer over the fixture's train split
// and populates State.TrainVecs.
func newFixtureFeaturizer(t *testing.T, s *State) *textproc.Featurizer {
	t.Helper()
	feat := textproc.NewFeaturizer(2048)
	if err := feat.Fit(dataset.TokenCorpus(s.Dataset.Train)); err != nil {
		t.Fatal(err)
	}
	s.TrainVecs = feat.TransformAll(dataset.TokenCorpus(s.Dataset.Train))
	return feat
}
