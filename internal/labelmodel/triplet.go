package labelmodel

import (
	"fmt"
	"math"

	"datasculpt/internal/lf"
)

// Triplet is a FlyingSquid-style (Fu et al. 2020) method-of-moments label
// model for binary tasks. Mapping votes to ±1, conditional independence
// gives E[λ_i λ_j] = b_i b_j where b_j = 2a_j - 1 is LF j's balanced
// accuracy in signed form; for any triplet (i, j, k)
//
//	|b_i| = sqrt(|M_ij * M_ik / M_jk|)
//
// with M the pairwise agreement matrix over jointly active examples. The
// model averages the estimate over all valid triplets, assumes LFs are
// better than chance (b_j >= 0), and labels with a weighted vote using
// log-odds weights. It is closed-form — no EM iterations — which is the
// speed advantage the original paper claims.
type Triplet struct {
	// MinOverlap is the minimum number of jointly active examples for a
	// pair to contribute a usable second moment (default 5).
	MinOverlap int

	k     int
	acc   []float64
	prior []float64
}

// NewTriplet constructs the model.
func NewTriplet() *Triplet { return &Triplet{MinOverlap: 5} }

// Name implements LabelModel.
func (m *Triplet) Name() string { return "triplet" }

// Accuracies returns the fitted per-LF accuracies (shared slice).
func (m *Triplet) Accuracies() []float64 { return m.acc }

// Fit implements LabelModel. It returns an error for non-binary tasks;
// the triplet construction is specific to ±1 labels.
func (m *Triplet) Fit(vm *lf.VoteMatrix, numClasses int) error {
	if numClasses != 2 {
		return fmt.Errorf("triplet: binary tasks only, got %d classes", numClasses)
	}
	if m.MinOverlap <= 0 {
		m.MinOverlap = 5
	}
	m.k = 2
	nLF := vm.NumLFs()
	m.acc = make([]float64, nLF)
	if nLF == 0 {
		m.prior = []float64{0.5, 0.5}
		return nil
	}

	// Pairwise signed agreement over jointly active examples.
	M := make([][]float64, nLF)
	overlap := make([][]int, nLF)
	for j := range M {
		M[j] = make([]float64, nLF)
		overlap[j] = make([]int, nLF)
	}
	// Iterate per example over active LFs only: with sparse LFs (coverage
	// a few percent) this is far below the naive O(n·m²).
	rows := vm.Rows()
	for i := 0; i < rows.NumRows(); i++ {
		js, vs := rows.Row(i)
		for ai, a := range js {
			sa := float64(2*int(vs[ai]) - 1)
			for bi := ai + 1; bi < len(js); bi++ {
				b := js[bi]
				sb := float64(2*int(vs[bi]) - 1)
				M[a][b] += sa * sb
				overlap[a][b]++
			}
		}
	}
	pair := func(a, b int) (float64, bool) {
		if a > b {
			a, b = b, a
		}
		if overlap[a][b] < m.MinOverlap {
			return 0, false
		}
		return M[a][b] / float64(overlap[a][b]), true
	}

	// Average |b_i| over all triplets with usable moments.
	for i := 0; i < nLF; i++ {
		var sum float64
		var count int
		for j := 0; j < nLF; j++ {
			if j == i {
				continue
			}
			mij, ok1 := pair(i, j)
			if !ok1 || mij == 0 {
				continue
			}
			for k := j + 1; k < nLF; k++ {
				if k == i {
					continue
				}
				mik, ok2 := pair(i, k)
				mjk, ok3 := pair(j, k)
				if !ok2 || !ok3 || mjk == 0 {
					continue
				}
				v := mij * mik / mjk
				if v <= 0 {
					continue
				}
				b := math.Sqrt(v)
				if b > 1 {
					b = 1
				}
				sum += b
				count++
			}
		}
		var b float64
		if count > 0 {
			b = sum / float64(count)
		}
		// better-than-chance assumption: accuracy in [0.5, 1)
		a := (1 + b) / 2
		if a > 0.995 {
			a = 0.995
		}
		if a < 0.5 {
			a = 0.5
		}
		m.acc[i] = a
	}

	// Prior from the majority-vote histogram (crude but serviceable).
	mv := vm.MajorityVotes(2)
	pos, covered := 0, 0
	for _, v := range mv {
		if v == lf.Abstain {
			continue
		}
		covered++
		if v == 1 {
			pos++
		}
	}
	p1 := 0.5
	if covered > 0 {
		p1 = (float64(pos) + 1) / (float64(covered) + 2)
	}
	m.prior = []float64{1 - p1, p1}
	return nil
}

// PredictProba implements LabelModel.
func (m *Triplet) PredictProba(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("triplet: PredictProba before Fit")
	}
	if vm.NumLFs() != len(m.acc) {
		panic(fmt.Sprintf("triplet: matrix has %d LFs, fitted on %d", vm.NumLFs(), len(m.acc)))
	}
	rows := vm.Rows()
	out := make([][]float64, rows.NumRows())
	for i := range out {
		js, vs := rows.Row(i)
		if len(js) == 0 {
			continue
		}
		// log-odds of class 1
		lo := math.Log(m.prior[1] / m.prior[0])
		for t, j := range js {
			w := math.Log(m.acc[j] / (1 - m.acc[j]))
			if vs[t] == 1 {
				lo += w
			} else {
				lo -= w
			}
		}
		p1 := 1 / (1 + math.Exp(-lo))
		out[i] = []float64{1 - p1, p1}
	}
	return out
}
