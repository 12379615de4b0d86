// Package endmodel implements the downstream model of the PWS pipeline: a
// multinomial logistic regression over sparse hashed TF-IDF features,
// trained by per-example SGD on targets derived from the label model (the
// pipeline passes confidence-weighted hard argmax labels; see DESIGN.md
// §7). This matches the paper's configuration (logistic regression over
// frozen text features, WRENCH-style), with TF-IDF standing in for BERT
// embeddings (see DESIGN.md §2).
//
// Weights are stored feature-major: the K class weights of feature f sit
// next to each other at W[f*K : f*K+K]. A sparse example touches only
// its non-zero features. The kernels (logits, and step for the SGD
// update and L2 shrink) walk the classes in blocks of 4, 2 and 1; one
// pass over the example's indices serves a block, reading or updating
// its classes of each feature from one contiguous run while their sums
// or gradients stay in registers. Each class still sums and updates in
// the order the class-major layout used, so the arithmetic is
// unchanged. Saved models keep the class-major sparse JSON layout (see
// serialize.go).
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
	// W holds the Dim×K weights feature-major: the weight of feature f
	// for class c is W[f*K+c]. B is the per-class bias.
	W []float64
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
	if len(m.B) != m.K {
		return fmt.Errorf("endmodel: %d biases for %d classes", len(m.B), m.K)
	}
	if len(m.W)%m.K != 0 || len(m.W)/m.K != m.Dim {
		return fmt.Errorf("endmodel: %d weights for %d classes of dimension %d", len(m.W), m.K, m.Dim)
	}
	for i, w := range m.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("endmodel: class %d has a non-finite weight", i%m.K)
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
// loss (nil means uniform). Every X[i] must be a valid vector of width
// dim (indices strictly increasing in [0,dim), finite values).
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
	if dim <= 0 {
		return nil, fmt.Errorf("endmodel: invalid dimension %d", dim)
	}
	for i, y := range Y {
		if len(y) != k {
			return nil, fmt.Errorf("endmodel: target %d has %d classes, want %d", i, len(y), k)
		}
	}
	// The update pass below indexes W by x.Idx unchecked and touches each
	// listed feature once: an out-of-range index would panic and a
	// repeated one would be shrunk twice.
	for i, x := range X {
		if x == nil {
			return nil, fmt.Errorf("endmodel: example %d has no feature vector", i)
		}
		if err := x.Validate(dim); err != nil {
			return nil, fmt.Errorf("endmodel: example %d: %w", i, err)
		}
	}
	cfg = cfg.withDefaults()

	m := &LogisticRegression{
		Dim: dim,
		K:   k,
		W:   make([]float64, dim*k),
		B:   make([]float64, k),
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(X))
	probs := make([]float64, k)
	grad := make([]float64, k)
	lr := cfg.LearningRate

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// reshuffle each epoch
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		shrink := 1 - lr*cfg.L2
		for _, idx := range order {
			x := X[idx]
			m.logits(x, probs)
			softmaxInPlace(probs)
			w := lr
			if weights != nil {
				w *= weights[idx]
			}
			for c, y := range Y[idx] {
				g := (probs[c] - y) * w
				grad[c] = g
				if g != 0 {
					m.B[c] -= g
				}
			}
			m.step(x, grad, shrink)
		}
		lr *= cfg.LRDecay
	}
	return m, nil
}

// step applies one example's SGD update to the weights of its features:
// per weight, the class-major sequence old, -= g·v (skipped when
// g == 0), *= shrink. Classes go in blocks of 4, then 2, then 1. A block
// whose gradients are all non-zero runs the fused r = (r - g·v)·shrink
// with its gradients in registers; otherwise every class of the block
// takes the per-class path of stepClasses. Without L2, shrink is exactly
// 1 and multiplying by it leaves every weight bit-identical.
func (m *LogisticRegression) step(x *textproc.SparseVector, grad []float64, shrink float64) {
	k := m.K
	idx := x.Idx
	vals := x.Val[:len(idx)]
	c := 0
	for ; c+4 <= k; c += 4 {
		g0, g1, g2, g3 := grad[c], grad[c+1], grad[c+2], grad[c+3]
		if g0 == 0 || g1 == 0 || g2 == 0 || g3 == 0 {
			m.stepClasses(idx, vals, c, grad[c:c+4], shrink)
			continue
		}
		for t, fi := range idx {
			v := float64(vals[t])
			o := int(fi)*k + c
			r := m.W[o : o+4 : o+4]
			r[0] = (r[0] - g0*v) * shrink
			r[1] = (r[1] - g1*v) * shrink
			r[2] = (r[2] - g2*v) * shrink
			r[3] = (r[3] - g3*v) * shrink
		}
	}
	if c+2 <= k {
		g0, g1 := grad[c], grad[c+1]
		if g0 == 0 || g1 == 0 {
			m.stepClasses(idx, vals, c, grad[c:c+2], shrink)
		} else {
			for t, fi := range idx {
				v := float64(vals[t])
				o := int(fi)*k + c
				r := m.W[o : o+2 : o+2]
				r[0] = (r[0] - g0*v) * shrink
				r[1] = (r[1] - g1*v) * shrink
			}
		}
		c += 2
	}
	if c < k {
		m.stepClasses(idx, vals, c, grad[c:c+1], shrink)
	}
}

// stepClasses updates the block of classes c..c+len(g)-1 one class at a
// time: a class whose gradient is 0 is only shrunk.
func (m *LogisticRegression) stepClasses(idx []int32, vals []float32, c int, g []float64, shrink float64) {
	k := m.K
	for t, fi := range idx {
		v := float64(vals[t])
		o := int(fi)*k + c
		r := m.W[o : o+len(g) : o+len(g)]
		for j, gj := range g {
			if gj != 0 {
				r[j] -= gj * v
			}
			r[j] *= shrink
		}
	}
}

// logits writes raw class scores for x into out (length K). Classes go in
// blocks of 4, then 2, then 1, each block summing in registers over one
// pass of x's features; each class sums bias first, then features in
// ascending index order.
func (m *LogisticRegression) logits(x *textproc.SparseVector, out []float64) {
	k := m.K
	out = out[:k]
	idx := x.Idx
	vals := x.Val[:len(idx)]
	c := 0
	for ; c+4 <= k; c += 4 {
		s0, s1, s2, s3 := m.B[c], m.B[c+1], m.B[c+2], m.B[c+3]
		for t, fi := range idx {
			v := float64(vals[t])
			o := int(fi)*k + c
			w := m.W[o : o+4 : o+4]
			s0 += w[0] * v
			s1 += w[1] * v
			s2 += w[2] * v
			s3 += w[3] * v
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	if c+2 <= k {
		s0, s1 := m.B[c], m.B[c+1]
		for t, fi := range idx {
			v := float64(vals[t])
			o := int(fi)*k + c
			w := m.W[o : o+2 : o+2]
			s0 += w[0] * v
			s1 += w[1] * v
		}
		out[c], out[c+1] = s0, s1
		c += 2
	}
	if c < k {
		s := m.B[c]
		for t, fi := range idx {
			s += m.W[int(fi)*k+c] * float64(vals[t])
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
