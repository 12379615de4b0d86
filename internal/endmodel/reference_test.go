package endmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datasculpt/internal/textproc"
)

// refModel is the class-major model the feature-major LogisticRegression
// replaced: W[c][f] is the weight of feature f for class c. refTrain,
// refLogits and refPredictProbaAll are the historical kernels, kept
// verbatim as the oracle the fused kernels must match bit for bit.
type refModel struct {
	Dim, K int
	W      [][]float64
	B      []float64
}

func refTrain(X []*textproc.SparseVector, Y [][]float64, weights []float64, k, dim int, cfg TrainConfig) *refModel {
	cfg = cfg.withDefaults()

	m := &refModel{
		Dim: dim,
		K:   k,
		W:   make([][]float64, k),
		B:   make([]float64, k),
	}
	for c := range m.W {
		m.W[c] = make([]float64, dim)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(X))
	probs := make([]float64, k)
	lr := cfg.LearningRate

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// reshuffle each epoch
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			x := X[idx]
			m.logits(x, probs)
			softmaxInPlace(probs)
			w := lr
			if weights != nil {
				w *= weights[idx]
			}
			for c := 0; c < k; c++ {
				g := (probs[c] - Y[idx][c]) * w
				if g == 0 {
					continue
				}
				m.B[c] -= g
				wc := m.W[c]
				for t, fi := range x.Idx {
					wc[fi] -= g * float64(x.Val[t])
				}
			}
			// lazy L2 on touched coordinates
			if cfg.L2 > 0 {
				shrink := 1 - lr*cfg.L2
				for c := 0; c < k; c++ {
					wc := m.W[c]
					for _, fi := range x.Idx {
						wc[fi] *= shrink
					}
				}
			}
		}
		lr *= cfg.LRDecay
	}
	return m
}

func (m *refModel) logits(x *textproc.SparseVector, out []float64) {
	for c := 0; c < m.K; c++ {
		s := m.B[c]
		wc := m.W[c]
		for t, fi := range x.Idx {
			s += wc[fi] * float64(x.Val[t])
		}
		out[c] = s
	}
}

func (m *refModel) predictProbaAll(X []*textproc.SparseVector) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		row := make([]float64, m.K)
		m.logits(x, row)
		softmaxInPlace(row)
		out[i] = row
	}
	return out
}

// randomTrainingSet draws sparse vectors over dim features with 1-12
// entries each, one-hot or soft targets, and optional example weights
// that include exact zeros (every gradient of such an example is 0, so
// the skipped-update branch runs).
func randomTrainingSet(rng *rand.Rand, n, k, dim int, weighted, soft bool) ([]*textproc.SparseVector, [][]float64, []float64) {
	X := make([]*textproc.SparseVector, n)
	Y := make([][]float64, n)
	var W []float64
	if weighted {
		W = make([]float64, n)
	}
	for i := range X {
		v := &textproc.SparseVector{}
		for f := 0; f < dim; f++ {
			if rng.Intn(dim) < 1+rng.Intn(12) {
				v.Idx = append(v.Idx, int32(f))
				v.Val = append(v.Val, float32(rng.NormFloat64()))
			}
		}
		v.Normalize()
		X[i] = v
		y := make([]float64, k)
		if soft {
			var sum float64
			for c := range y {
				y[c] = rng.Float64()
				sum += y[c]
			}
			for c := range y {
				y[c] /= sum
			}
		} else {
			y[rng.Intn(k)] = 1
		}
		Y[i] = y
		if weighted {
			if rng.Intn(8) != 0 {
				W[i] = rng.Float64() * 2
			}
		}
	}
	return X, Y, W
}

// predict is the argmax of the reference logits, first class on ties.
func (m *refModel) predict(X []*textproc.SparseVector) []int {
	out := make([]int, len(X))
	scores := make([]float64, m.K)
	for i, x := range X {
		m.logits(x, scores)
		for c := 1; c < m.K; c++ {
			if scores[c] > scores[out[i]] {
				out[i] = c
			}
		}
	}
	return out
}

// assertMatchesReference requires m's weights, biases, probabilities
// (batch at one and two workers, and one at a time) and argmax labels on
// X to equal the reference's bit for bit.
func assertMatchesReference(t *testing.T, m *LogisticRegression, ref *refModel, X []*textproc.SparseVector) {
	t.Helper()
	k := ref.K
	for c := 0; c < k; c++ {
		if math.Float64bits(m.B[c]) != math.Float64bits(ref.B[c]) {
			t.Fatalf("bias %d: %v != reference %v", c, m.B[c], ref.B[c])
		}
		for f := 0; f < ref.Dim; f++ {
			if got, want := m.W[f*k+c], ref.W[c][f]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("W[class %d][feature %d] = %v, reference %v", c, f, got, want)
			}
		}
	}
	want := ref.predictProbaAll(X)
	sameRow := func(what string, i int, got []float64) {
		t.Helper()
		for c := range want[i] {
			if math.Float64bits(got[c]) != math.Float64bits(want[i][c]) {
				t.Fatalf("%s: proba[%d][%d] = %v, reference %v", what, i, c, got[c], want[i][c])
			}
		}
	}
	for _, workers := range []int{1, 2} {
		m.SetParallelism(workers)
		got := m.PredictProbaAll(X)
		for i := range want {
			sameRow(fmt.Sprintf("PredictProbaAll, workers %d", workers), i, got[i])
		}
	}
	for i, x := range X {
		sameRow("PredictProba", i, m.PredictProba(x))
	}
	wantLabels := ref.predict(X)
	for i, got := range m.Predict(X) {
		if got != wantLabels[i] {
			t.Fatalf("Predict[%d] = %d, reference %d", i, got, wantLabels[i])
		}
	}
}

// TestTrainMatchesClassMajorReference pins the class-blocked
// feature-major kernels to the historical class-major ones: every
// weight, bias, predicted probability and label must be bit-identical.
// K = 2..8 covers every remainder of the blocks of 4, 2 and 1.
func TestTrainMatchesClassMajorReference(t *testing.T) {
	for k := 2; k <= 8; k++ {
		for _, weighted := range []bool{false, true} {
			for _, l2 := range []float64{-1, 0} { // -1 trains without L2, 0 selects the default
				for _, soft := range []bool{false, true} {
					name := fmt.Sprintf("k%d/weighted=%v/l2=%v/soft=%v", k, weighted, l2, soft)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(k)*131 + int64(len(name))))
						const dim = 96
						X, Y, W := randomTrainingSet(rng, 300, k, dim, weighted, soft)
						cfg := TrainConfig{Seed: int64(k), Epochs: 3, L2: l2}
						m, err := Train(X, Y, W, k, dim, cfg)
						if err != nil {
							t.Fatal(err)
						}
						assertMatchesReference(t, m, refTrain(X, Y, W, k, dim, cfg), X)
					})
				}
			}
		}
	}
}

// mixedBlock reports whether some block of 4, 2 or 1 classes (the
// kernels' blocking) holds both a zero and a non-zero gradient.
func mixedBlock(g []float64) bool {
	for c := 0; c < len(g); {
		n := 1
		if len(g)-c >= 4 {
			n = 4
		} else if len(g)-c >= 2 {
			n = 2
		}
		zeros := 0
		for _, x := range g[c : c+n] {
			if x == 0 {
				zeros++
			}
		}
		if zeros > 0 && zeros < n {
			return true
		}
		c += n
	}
	return false
}

// TestTrainMatchesReferenceUnderUnderflow scales the features up until
// softmax underflows: most probabilities become exactly 0 or 1, so an
// example's gradients are 0 for some classes of a block and not for
// others, and the blocks' per-class fallback runs.
func TestTrainMatchesReferenceUnderUnderflow(t *testing.T) {
	for k := 3; k <= 8; k++ {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k)))
			const dim = 96
			X, Y, _ := randomTrainingSet(rng, 300, k, dim, false, false)
			for _, x := range X {
				for j := range x.Val {
					x.Val[j] *= 300
				}
			}
			cfg := TrainConfig{Seed: int64(k), Epochs: 3}
			ref := refTrain(X, Y, nil, k, dim, cfg)
			mixed := 0
			for i, p := range ref.predictProbaAll(X) {
				g := make([]float64, k)
				for c := range g {
					g[c] = p[c] - Y[i][c]
				}
				if mixedBlock(g) {
					mixed++
				}
			}
			if mixed == 0 {
				t.Fatal("no example has a block of mixed zero and non-zero gradients")
			}
			m, err := Train(X, Y, nil, k, dim, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, m, ref, X)
		})
	}
}

// TestTrainRejectsMalformedVectors: the fused update indexes the weights
// by the vector's indices and touches each once, so Train must refuse
// vectors that break the SparseVector invariants instead of panicking or
// shrinking a weight twice.
func TestTrainRejectsMalformedVectors(t *testing.T) {
	const dim = 8
	good := &textproc.SparseVector{Idx: []int32{1, 5}, Val: []float32{0.6, 0.8}}
	cases := map[string]*textproc.SparseVector{
		"index out of range":  {Idx: []int32{1, dim}, Val: []float32{0.6, 0.8}},
		"negative index":      {Idx: []int32{-1, 2}, Val: []float32{0.6, 0.8}},
		"repeated index":      {Idx: []int32{3, 3}, Val: []float32{0.6, 0.8}},
		"decreasing indices":  {Idx: []int32{4, 2}, Val: []float32{0.6, 0.8}},
		"length mismatch":     {Idx: []int32{1, 2}, Val: []float32{1}},
		"non-finite value":    {Idx: []int32{1}, Val: []float32{float32(math.Inf(1))}},
		"missing feature vec": nil,
	}
	Y := [][]float64{{1, 0}, {0, 1}}
	for name, bad := range cases {
		if _, err := Train([]*textproc.SparseVector{good, bad}, Y, nil, 2, dim, TrainConfig{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Train([]*textproc.SparseVector{good, good}, Y, nil, 2, dim, TrainConfig{}); err != nil {
		t.Errorf("valid vectors rejected: %v", err)
	}
	if _, err := Train([]*textproc.SparseVector{good, good}, Y, nil, 2, 0, TrainConfig{}); err == nil {
		t.Error("zero dimension accepted")
	}
}
