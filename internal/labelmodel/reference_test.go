package labelmodel

import (
	"fmt"
	"math"

	"datasculpt/internal/lf"
	"datasculpt/internal/par"
)

// The row-by-row MeTaL E-step and PredictProba the per-pattern kernels
// replaced, kept verbatim as the oracle they must match bit for bit.

// fitRowByRow is the historical Fit, scoring every covered row.
func (m *MeTaL) fitRowByRow(vm *lf.VoteMatrix, numClasses int) error {
	if numClasses < 2 {
		return fmt.Errorf("metal: need >=2 classes, got %d", numClasses)
	}
	if m.MaxIter <= 0 {
		m.MaxIter = 100
	}
	if m.Tol <= 0 {
		m.Tol = 1e-6
	}
	m.k = numClasses
	m.emIters = 0
	m.warmLFs = 0
	nLF := vm.NumLFs()
	m.acc = make([]float64, nLF)
	m.theta = nil
	m.voteless = make([]bool, nLF)
	for j := range m.acc {
		m.acc[j] = accAnchor // optimistic init: LFs are better than chance
	}
	m.prior = make([]float64, numClasses)
	if m.ClassBalance != nil {
		if len(m.ClassBalance) != numClasses {
			return fmt.Errorf("metal: class balance has %d entries for %d classes",
				len(m.ClassBalance), numClasses)
		}
		var sum float64
		for _, p := range m.ClassBalance {
			if p <= 0 {
				return fmt.Errorf("metal: non-positive class balance entry")
			}
			sum += p
		}
		for c := range m.prior {
			m.prior[c] = m.ClassBalance[c] / sum
		}
	} else {
		for c := range m.prior {
			m.prior[c] = 1 / float64(numClasses)
		}
	}
	if nLF == 0 {
		return nil // nothing to learn; priors stay as configured
	}

	active := collectActive(vm)
	rows := vm.Rows()
	nCovered := 0
	for i := 0; i < rows.NumRows(); i++ {
		if js, _ := rows.Row(i); len(js) > 0 {
			nCovered++
		}
	}
	if nCovered == 0 {
		return fmt.Errorf("metal: no example is covered by any LF")
	}
	if m.ModelPropensity && m.SuppressSingleClassVote {
		for j := range m.voteless {
			m.voteless[j] = active[j].singleClass
		}
	}

	if m.ModelPropensity {
		// θ initialization leans toward the LF's voted class: the LF's
		// author (the LLM, a human expert, a code generator) intended it
		// to fire on that class, which breaks the symmetry EM needs when
		// single-class LFs contribute no vote factor. The lean is soft;
		// the M-step re-estimates θ from responsibilities, flattening it
		// for LFs whose activations turn out to be class-independent.
		m.theta = make([][]float64, nLF)
		for j := range m.theta {
			m.theta[j] = make([]float64, numClasses)
			base := float64(len(active[j].ids)+1) / float64(nCovered+2)
			for c := range m.theta[j] {
				m.theta[j][c] = base
			}
			if vc := active[j].voteClass; vc >= 0 && vc < numClasses {
				up := base * 2.5
				if up > 0.95 {
					up = 0.95
				}
				down := base * 0.4
				if down < 1e-4 {
					down = 1e-4
				}
				for c := range m.theta[j] {
					if c == vc {
						m.theta[j][c] = up
					} else {
						m.theta[j][c] = down
					}
				}
			}
		}
	}

	// Warm start: overlay the donor's converged parameters on the shared
	// prefix of the LF set. Appended columns keep the default init above.
	if m.warmK == numClasses && len(m.warmAcc) > 0 {
		shared := len(m.warmAcc)
		if shared > nLF {
			shared = nLF
		}
		copy(m.acc[:shared], m.warmAcc[:shared])
		if m.theta != nil && m.warmTheta != nil {
			for j := 0; j < shared && j < len(m.warmTheta); j++ {
				copy(m.theta[j], m.warmTheta[j])
			}
		}
		if m.LearnPrior && len(m.warmPrior) == numClasses {
			copy(m.prior, m.warmPrior)
		}
		m.warmLFs = shared
	}

	n := vm.NumExamples()
	workers := m.Workers
	logpost := make([][]float64, n)
	gamma := make([][]float64, n)
	lse := make([]float64, n)
	backing := make([]float64, 2*nCovered*numClasses) // one alloc for all rows
	off := 0
	for i := range logpost {
		if js, _ := rows.Row(i); len(js) > 0 {
			logpost[i] = backing[off : off+numClasses : off+numClasses]
			gamma[i] = backing[off+numClasses : off+2*numClasses : off+2*numClasses]
			off += 2 * numClasses
		}
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < m.MaxIter; iter++ {
		m.emIters = iter + 1
		// E-step. With propensity on, every covered document carries the
		// inactive-LF mass Σ_j log(1-θ_jc) as a per-class base term, and
		// each active LF swaps its log(1-θ_jc) for log θ_jc plus the vote
		// factor. Examples are sharded across workers; each index owns
		// its logpost/gamma/lse slots, so the arithmetic is identical at
		// every worker count.
		ft := m.buildTables(nLF, numClasses, workers)
		base := m.baseTerms(nLF, numClasses)
		par.Chunks(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := logpost[i]
				if row == nil {
					continue
				}
				copy(row, base)
				js, vs := rows.Row(i)
				m.scoreRow(row, js, vs, ft)
				l := logSumExp(row)
				lse[i] = l
				for c, g := range row {
					gamma[i][c] = math.Exp(g - l)
				}
			}
		})
		// Reductions in ascending example order, off the parallel path:
		// the sum order — and therefore every bit of the result — is
		// independent of the worker count.
		var ll float64
		for i := range logpost {
			if logpost[i] == nil {
				continue
			}
			ll += lse[i]
		}
		// Class mass over covered documents (for propensity denominators).
		classMass := make([]float64, numClasses)
		for i := range gamma {
			if gamma[i] == nil {
				continue
			}
			for c, g := range gamma[i] {
				classMass[c] += g
			}
		}

		// M-step: accuracies under an informative Beta prior anchored at
		// accAnchor. Keyword LFs are sparse — most covered examples carry
		// a single vote, which gives EM no corroborating evidence — so
		// unanchored estimates drift toward whatever the current
		// responsibilities happen to say. The anchor (pseudo-count
		// accPseudo) keeps sparse LFs near the plausible operating point
		// while densely-covered LFs remain data-driven. LFs are sharded
		// across workers; each owns its acc/theta row.
		par.Chunks(workers, nLF, func(lo, hi int) {
			activeMass := make([]float64, numClasses)
			for j := lo; j < hi; j++ {
				al := active[j]
				var correct, total float64
				for c := range activeMass {
					activeMass[c] = 0
				}
				for t, id := range al.ids {
					v := int(al.votes[t])
					correct += gamma[id][v]
					total++
					for c := 0; c < numClasses; c++ {
						activeMass[c] += gamma[id][c]
					}
				}
				a := (correct + accPseudo*accAnchor) / (total + accPseudo)
				// Better-than-chance constraint (standard in data programming):
				// without it EM has a degenerate mode that explains minority-
				// class LFs as systematically inverted and collapses the prior.
				floor := 1.0/float64(numClasses) + 0.05
				if a < floor {
					a = floor
				}
				if a > 0.995 {
					a = 0.995
				}
				m.acc[j] = a

				if m.ModelPropensity {
					marginal := (total + 1) / (float64(nCovered) + 2)
					lo := marginal / thetaClampFactor
					hi := marginal * thetaClampFactor
					if lo < 1e-4 {
						lo = 1e-4
					}
					if hi > 0.999 {
						hi = 0.999
					}
					for c := 0; c < numClasses; c++ {
						th := (activeMass[c] + thetaPseudo) / (classMass[c] + 2*thetaPseudo)
						if th < lo {
							th = lo
						}
						if th > hi {
							th = hi
						}
						m.theta[j][c] = th
					}
				}
			}
		})
		if m.LearnPrior {
			for c := 0; c < numClasses; c++ {
				m.prior[c] = (classMass[c] + 1.0) / (float64(nCovered) + float64(numClasses))
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

// predictProbaRowByRow is the historical PredictProba, scoring every
// covered row.
func (m *MeTaL) predictProbaRowByRow(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("metal: PredictProba before Fit")
	}
	if vm.NumLFs() != len(m.acc) {
		panic(fmt.Sprintf("metal: matrix has %d LFs, fitted on %d", vm.NumLFs(), len(m.acc)))
	}
	n := vm.NumExamples()
	nLF := vm.NumLFs()
	workers := m.Workers
	rows := vm.Rows()
	ft := m.buildTables(nLF, m.k, workers)
	base := m.baseTerms(nLF, m.k)

	out := make([][]float64, n)
	nCov := 0
	for i := 0; i < n; i++ {
		if js, _ := rows.Row(i); len(js) > 0 {
			nCov++
		}
	}
	backing := make([]float64, nCov*m.k)
	off := 0
	for i := 0; i < n; i++ {
		if js, _ := rows.Row(i); len(js) > 0 {
			out[i] = backing[off : off+m.k : off+m.k]
			off += m.k
		}
	}
	par.Chunks(workers, n, func(lo, hi int) {
		logp := make([]float64, m.k)
		for i := lo; i < hi; i++ {
			p := out[i]
			if p == nil {
				continue
			}
			copy(logp, base)
			js, vs := rows.Row(i)
			m.scoreRow(logp, js, vs, ft)
			l := logSumExp(logp)
			for c := range p {
				p[c] = math.Exp(logp[c] - l)
			}
		}
	})
	return out
}
