package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1}); !almostEqual(got, 0.75) {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if got := Accuracy(nil, nil); got != 0 {
		t.Errorf("empty accuracy = %v", got)
	}
}

func TestAccuracyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Accuracy([]int{1}, []int{1, 2})
}

func TestConfusionMatrix(t *testing.T) {
	pred := []int{1, 0, 1, 2, -1}
	gold := []int{1, 1, 0, 2, 0}
	cm := ConfusionMatrix(pred, gold, 3)
	if cm[1][1] != 1 || cm[1][0] != 1 || cm[0][1] != 1 || cm[2][2] != 1 {
		t.Errorf("confusion matrix wrong: %v", cm)
	}
	// the -1 prediction is ignored
	total := 0
	for _, row := range cm {
		for _, v := range row {
			total += v
		}
	}
	if total != 4 {
		t.Errorf("total counted = %d, want 4", total)
	}
}

func TestBinaryF1(t *testing.T) {
	// tp=2, fp=1, fn=1 -> p=2/3, r=2/3, f1=2/3
	pred := []int{1, 1, 1, 0, 0}
	gold := []int{1, 1, 0, 1, 0}
	if got := BinaryF1(pred, gold); !almostEqual(got, 2.0/3.0) {
		t.Errorf("BinaryF1 = %v, want 2/3", got)
	}
	// no positive predictions and no positive gold -> 0 (undefined)
	if got := BinaryF1([]int{0, 0}, []int{0, 0}); got != 0 {
		t.Errorf("degenerate F1 = %v", got)
	}
}

func TestPerfectPredictionsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		labels := make([]int, len(raw))
		for i, r := range raw {
			labels[i] = int(r % 4)
		}
		if len(labels) == 0 {
			return true
		}
		if !almostEqual(Accuracy(labels, labels), 1) {
			return false
		}
		// per-class F1 is 1 for every class present in gold and 0
		// (undefined) for absent classes
		present := make(map[int]bool)
		for _, g := range labels {
			present[g] = true
		}
		cm := ConfusionMatrix(labels, labels, 4)
		for c := 0; c < 4; c++ {
			want := 0.0
			if present[c] {
				want = 1
			}
			if _, _, f1 := PrecisionRecallF1(cm, c); !almostEqual(f1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestF1BoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		n := 1 + rng.Intn(50)
		pred := make([]int, n)
		gold := make([]int, n)
		for i := 0; i < n; i++ {
			pred[i] = rng.Intn(2)
			gold[i] = rng.Intn(2)
		}
		f1 := BinaryF1(pred, gold)
		acc := Accuracy(pred, gold)
		return f1 >= 0 && f1 <= 1 && acc >= 0 && acc <= 1
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatal("metric out of [0,1]")
		}
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1, 0}); !almostEqual(got, 0) {
		t.Errorf("deterministic entropy = %v", got)
	}
	if got := Entropy([]float64{0.5, 0.5}); !almostEqual(got, math.Log(2)) {
		t.Errorf("uniform binary entropy = %v, want ln2", got)
	}
	uniform4 := Entropy([]float64{0.25, 0.25, 0.25, 0.25})
	if !almostEqual(uniform4, math.Log(4)) {
		t.Errorf("uniform 4-class entropy = %v", uniform4)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{0.1, 0.7, 0.2}); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("tie ArgMax = %d, want 0 (lowest index)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestPrecisionRecallOutOfRangeClass(t *testing.T) {
	cm := ConfusionMatrix([]int{0, 1}, []int{0, 1}, 2)
	p, r, f1 := PrecisionRecallF1(cm, 5)
	if p != 0 || r != 0 || f1 != 0 {
		t.Errorf("out-of-range class PRF = %v %v %v", p, r, f1)
	}
}
