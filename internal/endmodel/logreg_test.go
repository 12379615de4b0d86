package endmodel

import (
	"math"
	"math/rand"
	"testing"

	"datasculpt/internal/metrics"
	"datasculpt/internal/textproc"
)

// gaussianBlobs builds a linearly separable-ish sparse dataset: class c
// documents are dominated by feature block c.
func gaussianBlobs(seed int64, n, k, dim int, noise float64) ([]*textproc.SparseVector, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([]*textproc.SparseVector, n)
	Y := make([]int, n)
	block := dim / k
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		Y[i] = c
		var idx []int32
		var val []float32
		for t := 0; t < 6; t++ {
			var f int
			if rng.Float64() < 1-noise {
				f = c*block + rng.Intn(block)
			} else {
				f = rng.Intn(dim)
			}
			idx = append(idx, int32(f))
			val = append(val, 1)
		}
		// sort+dedupe by accumulating into a map-free pass
		v := &textproc.SparseVector{}
		seen := map[int32]float32{}
		for t, f := range idx {
			seen[f] += val[t]
		}
		for f := range seen {
			v.Idx = append(v.Idx, f)
		}
		sortInt32(v.Idx)
		for _, f := range v.Idx {
			v.Val = append(v.Val, seen[f])
		}
		v.Normalize()
		X[i] = v
	}
	return X, Y
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func oneHot(y []int, k int) [][]float64 {
	out := make([][]float64, len(y))
	for i, c := range y {
		row := make([]float64, k)
		row[c] = 1
		out[i] = row
	}
	return out
}

func TestTrainBinarySeparable(t *testing.T) {
	X, Y := gaussianBlobs(1, 2000, 2, 64, 0.1)
	m, err := Train(X, oneHot(Y, 2), nil, 2, 64, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(X)
	if acc := metrics.Accuracy(pred, Y); acc < 0.95 {
		t.Errorf("train accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainMulticlass(t *testing.T) {
	X, Y := gaussianBlobs(2, 4000, 4, 128, 0.15)
	m, err := Train(X, oneHot(Y, 4), nil, 4, 128, TrainConfig{Seed: 2, Epochs: 8})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := gaussianBlobs(3, 1000, 4, 128, 0.15)
	pred := m.Predict(testX)
	if acc := metrics.Accuracy(pred, testY); acc < 0.9 {
		t.Errorf("test accuracy = %v, want >= 0.9", acc)
	}
}

func TestTrainSoftLabels(t *testing.T) {
	// Noisy soft labels (0.8 mass on the true class) must still train a
	// usable model — the core property the PWS pipeline relies on.
	X, Y := gaussianBlobs(4, 3000, 2, 64, 0.1)
	soft := make([][]float64, len(Y))
	for i, c := range Y {
		row := []float64{0.2, 0.2}
		row[c] = 0.8
		soft[i] = row
	}
	m, err := Train(X, soft, nil, 2, 64, TrainConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(X)
	if acc := metrics.Accuracy(pred, Y); acc < 0.9 {
		t.Errorf("soft-label accuracy = %v", acc)
	}
}

func TestTrainValidatesInput(t *testing.T) {
	X, Y := gaussianBlobs(5, 10, 2, 16, 0.1)
	if _, err := Train(nil, nil, nil, 2, 16, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train(X, oneHot(Y, 2)[:5], nil, 2, 16, TrainConfig{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train(X, oneHot(Y, 2), make([]float64, 3), 2, 16, TrainConfig{}); err == nil {
		t.Error("weights mismatch accepted")
	}
	if _, err := Train(X, oneHot(Y, 2), nil, 1, 16, TrainConfig{}); err == nil {
		t.Error("single class accepted")
	}
	bad := oneHot(Y, 2)
	bad[0] = []float64{1}
	if _, err := Train(X, bad, nil, 2, 16, TrainConfig{}); err == nil {
		t.Error("ragged targets accepted")
	}
}

func TestPredictProbaSumsToOne(t *testing.T) {
	X, Y := gaussianBlobs(6, 500, 3, 64, 0.2)
	m, err := Train(X, oneHot(Y, 3), nil, 3, 64, TrainConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:50] {
		p := m.PredictProba(x)
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, Y := gaussianBlobs(7, 500, 2, 32, 0.1)
	m1, err := Train(X, oneHot(Y, 2), nil, 2, 32, TrainConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, oneHot(Y, 2), nil, 2, 32, TrainConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("training is nondeterministic for equal seeds")
		}
	}
}

func TestExampleWeights(t *testing.T) {
	// Down-weighting mislabeled examples should recover accuracy lost to
	// label corruption.
	X, Y := gaussianBlobs(8, 2000, 2, 64, 0.1)
	labels := append([]int(nil), Y...)
	weights := make([]float64, len(Y))
	for i := range labels {
		weights[i] = 1
		if i%4 == 0 { // corrupt a quarter of the labels
			labels[i] = 1 - labels[i]
			weights[i] = 0.01
		}
	}
	m, err := Train(X, oneHot(labels, 2), weights, 2, 64, TrainConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(X)
	if acc := metrics.Accuracy(pred, Y); acc < 0.9 {
		t.Errorf("weighted training accuracy = %v", acc)
	}
}
