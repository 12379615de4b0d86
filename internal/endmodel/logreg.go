// Package endmodel implements the downstream model of the PWS pipeline: a
// multinomial logistic regression over sparse hashed TF-IDF features,
// trained by per-example SGD on targets derived from the label model (the
// pipeline passes confidence-weighted hard argmax labels; see DESIGN.md
// §7). This matches the paper's configuration (logistic regression over
// frozen text features, WRENCH-style), with TF-IDF standing in for BERT
// embeddings (see DESIGN.md §2).
package endmodel

import (
	"fmt"
	"math"
	"math/rand"

	"datasculpt/internal/par"
	"datasculpt/internal/textproc"
)

// TrainConfig holds the optimizer hyperparameters.
type TrainConfig struct {
	// Epochs over the training set (default 8).
	Epochs int
	// LearningRate of per-example SGD (default 0.5; features are
	// L2-normalized TF-IDF, so a large step is stable). It decays by
	// LRDecay per epoch.
	LearningRate float64
	// LRDecay multiplies the learning rate after each epoch (default 0.9).
	LRDecay float64
	// L2 regularization strength (default 1e-5).
	L2 float64
	// Seed drives shuffling.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.LRDecay <= 0 || c.LRDecay > 1 {
		c.LRDecay = 0.9
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-5
	}
	return c
}

// LogisticRegression is a trained multinomial logistic-regression model.
type LogisticRegression struct {
	// Dim is the feature dimensionality, K the class count.
	Dim, K int
	// W is the K×Dim weight matrix, B the per-class bias.
	W [][]float64
	B []float64

	// workers bounds the goroutines batch prediction fans out over
	// (<= 1 sequential). Per-example outputs are independent, so every
	// worker count produces identical results. Not serialized — a
	// deserialized model predicts sequentially until SetParallelism.
	workers int
}

// SetParallelism sets the worker bound for Predict/PredictProbaAll.
func (m *LogisticRegression) SetParallelism(workers int) { m.workers = workers }

// Validate checks the structural invariants of a model (trained,
// deserialized, or hand-assembled): a consistent K×Dim shape and finite
// parameters. Bundle loading calls it before serving the model.
func (m *LogisticRegression) Validate() error {
	if m.Dim <= 0 || m.K < 2 {
		return fmt.Errorf("endmodel: invalid shape %dx%d", m.K, m.Dim)
	}
	if len(m.W) != m.K || len(m.B) != m.K {
		return fmt.Errorf("endmodel: %d weight rows and %d biases for %d classes", len(m.W), len(m.B), m.K)
	}
	for c, wc := range m.W {
		if len(wc) != m.Dim {
			return fmt.Errorf("endmodel: class %d has %d weights for dimension %d", c, len(wc), m.Dim)
		}
		for _, w := range wc {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("endmodel: class %d has a non-finite weight", c)
			}
		}
	}
	for c, b := range m.B {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("endmodel: class %d has a non-finite bias", c)
		}
	}
	return nil
}

// Train fits the model on sparse features X with targets Y (each row a
// probability vector over k classes; one-hot rows give hard labels) using
// per-example SGD over a reshuffled order each epoch, with per-epoch
// learning-rate decay. An optional weights slice scales each example's
// loss (nil means uniform).
func Train(X []*textproc.SparseVector, Y [][]float64, weights []float64, k, dim int, cfg TrainConfig) (*LogisticRegression, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("endmodel: empty training set")
	}
	if len(X) != len(Y) {
		return nil, fmt.Errorf("endmodel: %d features for %d targets", len(X), len(Y))
	}
	if weights != nil && len(weights) != len(X) {
		return nil, fmt.Errorf("endmodel: %d weights for %d examples", len(weights), len(X))
	}
	if k < 2 {
		return nil, fmt.Errorf("endmodel: need >=2 classes, got %d", k)
	}
	for i, y := range Y {
		if len(y) != k {
			return nil, fmt.Errorf("endmodel: target %d has %d classes, want %d", i, len(y), k)
		}
	}
	cfg = cfg.withDefaults()

	m := &LogisticRegression{
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
	return m, nil
}

// logits writes raw class scores for x into out (length K).
func (m *LogisticRegression) logits(x *textproc.SparseVector, out []float64) {
	for c := 0; c < m.K; c++ {
		s := m.B[c]
		wc := m.W[c]
		for t, fi := range x.Idx {
			s += wc[fi] * float64(x.Val[t])
		}
		out[c] = s
	}
}

func softmaxInPlace(xs []float64) {
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range xs {
		xs[i] = math.Exp(x - max)
		sum += xs[i]
	}
	for i := range xs {
		xs[i] /= sum
	}
}

// PredictProba returns the class distribution for one feature vector.
func (m *LogisticRegression) PredictProba(x *textproc.SparseVector) []float64 {
	out := make([]float64, m.K)
	m.logits(x, out)
	softmaxInPlace(out)
	return out
}

// Predict returns argmax classes for a batch, sharded across the
// configured workers (identical output at any worker count).
func (m *LogisticRegression) Predict(X []*textproc.SparseVector) []int {
	out := make([]int, len(X))
	par.Chunks(m.workers, len(X), func(lo, hi int) {
		probs := make([]float64, m.K)
		for i := lo; i < hi; i++ {
			m.logits(X[i], probs)
			best := 0
			for c := 1; c < m.K; c++ {
				if probs[c] > probs[best] {
					best = c
				}
			}
			out[i] = best
		}
	})
	return out
}

// PredictProbaAll returns class distributions for a batch, sharded
// across the configured workers. All rows share one flat backing array —
// a single allocation instead of one per example, which matters when the
// pipeline re-predicts the full train split every interim refresh.
func (m *LogisticRegression) PredictProbaAll(X []*textproc.SparseVector) [][]float64 {
	out := make([][]float64, len(X))
	backing := make([]float64, len(X)*m.K)
	par.Chunks(m.workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := backing[i*m.K : (i+1)*m.K : (i+1)*m.K]
			m.logits(X[i], row)
			softmaxInPlace(row)
			out[i] = row
		}
	})
	return out
}
