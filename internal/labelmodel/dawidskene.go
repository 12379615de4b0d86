package labelmodel

import (
	"fmt"
	"math"

	"datasculpt/internal/lf"
)

// DawidSkene is the classical crowdsourcing label model (Dawid & Skene
// 1979) adapted to abstaining LFs: each LF carries a full K×K confusion
// matrix π_j[c][v] = P(vote v | y=c, active) estimated with EM, instead
// of MeTaL's single symmetric accuracy. The richer parametrization can
// capture class-asymmetric LF behaviour (an LF that is precise on one
// class but noisy on another) at the cost of K² parameters per LF —
// worthwhile only when coverage is dense enough to fit them. Activation
// is treated as class-independent (the classic abstain model).
type DawidSkene struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol is the relative log-likelihood convergence tolerance.
	Tol float64
	// Smoothing is the Dirichlet pseudo-count added to confusion rows,
	// biased toward the diagonal (default 2).
	Smoothing float64

	k         int
	confusion [][][]float64 // [lf][trueClass][vote]
	prior     []float64
}

// NewDawidSkene constructs the model with defaults.
func NewDawidSkene() *DawidSkene {
	return &DawidSkene{MaxIter: 50, Tol: 1e-6, Smoothing: 2}
}

// Name implements LabelModel.
func (m *DawidSkene) Name() string { return "dawid-skene" }

// Confusion returns the fitted confusion tensors (shared storage).
func (m *DawidSkene) Confusion() [][][]float64 { return m.confusion }

// Fit implements LabelModel.
func (m *DawidSkene) Fit(vm *lf.VoteMatrix, numClasses int) error {
	if numClasses < 2 {
		return fmt.Errorf("dawid-skene: need >=2 classes, got %d", numClasses)
	}
	if m.MaxIter <= 0 {
		m.MaxIter = 50
	}
	if m.Tol <= 0 {
		m.Tol = 1e-6
	}
	if m.Smoothing <= 0 {
		m.Smoothing = 2
	}
	m.k = numClasses
	nLF := vm.NumLFs()
	m.prior = make([]float64, numClasses)
	for c := range m.prior {
		m.prior[c] = 1 / float64(numClasses)
	}
	m.confusion = make([][][]float64, nLF)
	for j := range m.confusion {
		m.confusion[j] = make([][]float64, numClasses)
		for c := range m.confusion[j] {
			row := make([]float64, numClasses)
			for v := range row {
				if v == c {
					row[v] = 0.7
				} else {
					row[v] = 0.3 / float64(numClasses-1)
				}
			}
			m.confusion[j][c] = row
		}
	}
	if nLF == 0 {
		return nil
	}

	active := collectActive(vm)
	rows := vm.Rows()
	n := rows.NumRows()
	logpost := make([][]float64, n)
	gamma := make([][]float64, n)
	nCovered := 0
	for i := range logpost {
		if js, _ := rows.Row(i); len(js) > 0 {
			logpost[i] = make([]float64, numClasses)
			gamma[i] = make([]float64, numClasses)
			nCovered++
		}
	}
	if nCovered == 0 {
		return fmt.Errorf("dawid-skene: no example is covered by any LF")
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < m.MaxIter; iter++ {
		// E-step
		for i := range logpost {
			if logpost[i] == nil {
				continue
			}
			for c := 0; c < numClasses; c++ {
				logpost[i][c] = math.Log(m.prior[c])
			}
		}
		for j := 0; j < nLF; j++ {
			al := active[j]
			for t, id := range al.ids {
				v := int(al.votes[t])
				row := logpost[id]
				for c := 0; c < numClasses; c++ {
					row[c] += math.Log(m.confusion[j][c][v])
				}
			}
		}
		var ll float64
		for i := range logpost {
			if logpost[i] == nil {
				continue
			}
			lse := logSumExp(logpost[i])
			ll += lse
			for c := range gamma[i] {
				gamma[i][c] = math.Exp(logpost[i][c] - lse)
			}
		}

		// M-step: confusion rows with diagonal-biased Dirichlet smoothing.
		for j := 0; j < nLF; j++ {
			al := active[j]
			counts := make([][]float64, numClasses)
			for c := range counts {
				counts[c] = make([]float64, numClasses)
			}
			for t, id := range al.ids {
				v := int(al.votes[t])
				for c := 0; c < numClasses; c++ {
					counts[c][v] += gamma[id][c]
				}
			}
			for c := 0; c < numClasses; c++ {
				var total float64
				for v := 0; v < numClasses; v++ {
					pseudo := m.Smoothing * 0.3 / float64(numClasses-1)
					if v == c {
						pseudo = m.Smoothing * 0.7
					}
					counts[c][v] += pseudo
					total += counts[c][v]
				}
				for v := 0; v < numClasses; v++ {
					p := counts[c][v] / total
					if p < 1e-4 {
						p = 1e-4
					}
					m.confusion[j][c][v] = p
				}
			}
		}

		if prevLL != math.Inf(-1) {
			denom := math.Abs(prevLL)
			if denom < 1 {
				denom = 1
			}
			if math.Abs(ll-prevLL)/denom < m.Tol {
				break
			}
		}
		prevLL = ll
	}
	return nil
}

// PredictProba implements LabelModel.
func (m *DawidSkene) PredictProba(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("dawid-skene: PredictProba before Fit")
	}
	if vm.NumLFs() != len(m.confusion) {
		panic(fmt.Sprintf("dawid-skene: matrix has %d LFs, fitted on %d", vm.NumLFs(), len(m.confusion)))
	}
	rows := vm.Rows()
	out := make([][]float64, rows.NumRows())
	logp := make([]float64, m.k)
	for i := range out {
		js, vs := rows.Row(i)
		if len(js) == 0 {
			continue
		}
		for c := 0; c < m.k; c++ {
			logp[c] = math.Log(m.prior[c])
		}
		for t, j := range js {
			v := vs[t]
			for c := 0; c < m.k; c++ {
				logp[c] += math.Log(m.confusion[j][c][v])
			}
		}
		lse := logSumExp(logp)
		p := make([]float64, m.k)
		for c := range p {
			p[c] = math.Exp(logp[c] - lse)
		}
		out[i] = p
	}
	return out
}
