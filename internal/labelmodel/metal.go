package labelmodel

import (
	"fmt"
	"math"

	"datasculpt/internal/lf"
	"datasculpt/internal/par"
)

// MeTaL is a generative label model in the spirit of Ratner et al. (2019),
// the label model the paper uses throughout its evaluation. On a
// single-task problem MeTaL reduces to learning, without ground truth,
// per-LF reliabilities under a conditional-independence assumption; this
// implementation fits them with EM:
//
//	P(y=c) = π_c                               (fixed; see ClassBalance)
//	P(λ_j active | y=c) = θ_jc                 (class-conditional propensity)
//	P(λ_j = v | y=c, λ_j active) = a_j         if v == c
//	                             = (1-a_j)/(K-1) otherwise
//
// Unlike the simplest data-programming abstain model, activation is NOT
// assumed independent of the true class. For keyword LFs the activation
// pattern carries most of the signal: a spam-keyword LF fires almost
// exclusively on spam messages, so firing at all is strong evidence even
// before the vote is read — while a generic-word LF fires uniformly and
// its activation is correctly treated as uninformative. Modeling θ_jc is
// what lets the posterior separate the two on imbalanced datasets.
//
// The EM loop is engineered for the pipeline's per-iteration refit:
// vote columns are consumed through the matrix's sparse active lists
// (O(nnz), not O(n·m)), the E-step scores each distinct vote pattern
// once (sharded across Workers goroutines) instead of each example, and
// WarmStart seeds the next fit from the previous one so EM resumes near
// its fixpoint instead of from scratch. Determinism is preserved at
// every worker count: each pattern's posterior arithmetic is
// self-contained (identical regardless of which goroutine runs it, and
// to what the row-by-row E-step computed for each of its rows), and the
// floating-point reductions — log-likelihood, class mass and the M-step
// sums — run sequentially in ascending example order.
type MeTaL struct {
	// MaxIter bounds EM iterations (default 100).
	MaxIter int
	// Tol is the relative log-likelihood convergence tolerance
	// (default 1e-6).
	Tol float64
	// ClassBalance fixes the class priors π (like Snorkel's
	// class_balance input). Nil means uniform. Priors are NOT learned by
	// default: with the sparse, mostly-singleton coverage of keyword LFs,
	// jointly learning priors and accuracies has a degenerate EM mode
	// that explains minority-class LFs away as inaccurate and collapses
	// the prior onto the majority class.
	ClassBalance []float64
	// LearnPrior opts back into M-step prior updates for vote matrices
	// with dense, overlapping coverage.
	LearnPrior bool
	// ModelPropensity enables the class-conditional activation term θ_jc
	// (default true via NewMeTaL). Disable to recover the classic
	// abstain-uninformative model.
	ModelPropensity bool
	// SuppressSingleClassVote drops the accuracy factor for LFs that only
	// ever emit one class, leaving their evidence entirely to θ_jc. This
	// is the "correct" generative story for deterministic keyword LFs —
	// the vote repeats the activation — but in practice EM's θ estimates
	// from responsibilities are fragile when minority-class LFs are
	// sparse, so it is off by default and exercised by the ablation
	// benchmarks.
	SuppressSingleClassVote bool
	// Workers bounds the goroutines used by Fit's E/M steps and by
	// PredictProba. <= 1 (the zero value) is fully sequential; any value
	// yields bit-identical results.
	Workers int

	k        int
	acc      []float64   // per-LF accuracy a_j
	theta    [][]float64 // per-LF per-class activation propensity θ_jc
	voteless []bool      // per-LF: vote factor suppressed (single-class LF)
	prior    []float64   // class priors π

	// Warm-start state installed by WarmStart and consumed by Fit.
	warmAcc   []float64
	warmTheta [][]float64
	warmPrior []float64
	warmK     int

	emIters int // EM iterations the last Fit ran
	warmLFs int // LF columns the last Fit initialized from a warm start
}

// Accuracy-anchor hyperparameters of the M-step's Beta prior: sparse LFs
// are pulled toward accAnchor with the weight of accPseudo observations.
const (
	accAnchor = 0.88
	accPseudo = 8.0
	// thetaPseudo smooths the propensity estimates.
	thetaPseudo = 1.0
	// thetaClampFactor bounds each θ_jc to within this factor of the LF's
	// marginal activation rate. Without the clamp, EM can label-switch: a
	// small residual posterior mass (say γ=0.1) spread over a majority
	// LF's thousands of activations aggregates — against the rare class's
	// tiny mass denominator — into a large apparent propensity for the
	// wrong class, which then flips the LF's interpretation entirely.
	thetaClampFactor = 5.0
)

// NewMeTaL constructs the model with default hyperparameters.
func NewMeTaL() *MeTaL {
	return &MeTaL{MaxIter: 100, Tol: 1e-6, ModelPropensity: true}
}

// Name implements LabelModel.
func (m *MeTaL) Name() string { return "metal" }

// Accuracies returns the fitted per-LF accuracies (shared slice).
func (m *MeTaL) Accuracies() []float64 { return m.acc }

// Priors returns the class priors (shared slice).
func (m *MeTaL) Priors() []float64 { return m.prior }

// EMIterations returns how many EM iterations the last Fit ran — the
// quantity a warm start shrinks.
func (m *MeTaL) EMIterations() int { return m.emIters }

// WarmStartedLFs returns how many LF columns the last Fit initialized
// from a WarmStart donor (0 on a cold fit).
func (m *MeTaL) WarmStartedLFs() int { return m.warmLFs }

// WarmStart seeds the next Fit with the parameters a previous fit
// learned: columns shared with the donor (a prefix, under the pipeline's
// append-only LF set) start EM at the donor's acc/θ instead of the
// default init, so EM resumes near its previous fixpoint and converges
// in a handful of iterations. Columns beyond the donor's width get the
// default init; a donor fitted on a different class count is ignored.
// The donor's parameters are copied, not aliased.
func (m *MeTaL) WarmStart(prev *MeTaL) {
	m.warmAcc, m.warmTheta, m.warmPrior, m.warmK = nil, nil, nil, 0
	if prev == nil || prev.k == 0 || len(prev.acc) == 0 {
		return
	}
	m.warmK = prev.k
	m.warmAcc = append([]float64(nil), prev.acc...)
	if prev.theta != nil {
		m.warmTheta = make([][]float64, len(prev.theta))
		for j, row := range prev.theta {
			m.warmTheta[j] = append([]float64(nil), row...)
		}
	}
	if prev.prior != nil {
		m.warmPrior = append([]float64(nil), prev.prior...)
	}
}

// activeList caches the active (docID, vote) pairs of one LF column,
// plus whether the LF only ever emits a single class.
type activeList struct {
	ids   []int32
	votes []int8
	// singleClass is true when every active vote equals voteClass. For
	// such LFs (keyword LFs always vote their class) the vote carries no
	// information beyond the activation itself, so the accuracy factor
	// must not be applied — doing so double-counts and systematically
	// over-trusts majority-class LFs. All their evidence lives in θ_jc.
	singleClass bool
	voteClass   int
}

func collectActive(vm *lf.VoteMatrix) []activeList {
	out := make([]activeList, vm.NumLFs())
	for j := range out {
		ids, votes := vm.Active(j)
		al := activeList{ids: ids, votes: votes, singleClass: true, voteClass: -1}
		for _, v := range votes {
			if al.voteClass == -1 {
				al.voteClass = int(v)
			} else if al.voteClass != int(v) {
				al.singleClass = false
				break
			}
		}
		out[j] = al
	}
	return out
}

// votePatterns groups the covered rows of a vote matrix by their
// ascending (LF, vote) list. Rows with equal lists get bit-identical
// posteriors — scoreRow reads nothing but the list — so the E-step and
// PredictProba score each distinct pattern once. Keyword LFs are sparse
// (most covered rows carry one or two votes), so the patterns are a
// small fraction of the covered rows.
type votePatterns struct {
	of  []int32 // per row: its pattern, -1 for an uncovered row
	rep []int32 // per pattern: the first row carrying it
}

func groupPatterns(rows lf.RowView) votePatterns {
	n := rows.NumRows()
	pats := votePatterns{of: make([]int32, n)}
	ids := make(map[string]int32)
	var key []byte
	for i := 0; i < n; i++ {
		js, vs := rows.Row(i)
		if len(js) == 0 {
			pats.of[i] = -1
			continue
		}
		key = key[:0]
		for t, j := range js {
			key = append(key, byte(j), byte(j>>8), byte(j>>16), byte(j>>24), byte(vs[t]))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(pats.rep))
			ids[string(key)] = id
			pats.rep = append(pats.rep, int32(i))
		}
		pats.of[i] = id
	}
	return pats
}

// posteriors writes, for every pattern p, the normalized posterior into
// post[p*k:(p+1)*k] and, when lse is non-nil, its log-normalizer into
// lse[p]. Patterns are sharded across workers; each owns its slots, so
// the result is identical at every worker count.
func (m *MeTaL) posteriors(rows lf.RowView, pats votePatterns, k, workers int, ft factorTables, base, post, lse []float64) {
	par.Chunks(workers, len(pats.rep), func(lo, hi int) {
		logp := make([]float64, k)
		for p := lo; p < hi; p++ {
			copy(logp, base)
			js, vs := rows.Row(int(pats.rep[p]))
			m.scoreRow(logp, js, vs, ft)
			l := logSumExp(logp)
			if lse != nil {
				lse[p] = l
			}
			row := post[p*k : (p+1)*k]
			for c, g := range logp {
				row[c] = math.Exp(g - l)
			}
		}
	})
}

// factorTables precomputes, for the current parameters, every per-LF log
// term the posterior needs: the vote factors log a_j and
// log((1-a_j)/(K-1)), and the activation odds log θ_jc - log(1-θ_jc)
// (flattened j*k+c; nil when propensity is off). The historical code
// recomputed these math.Log calls per active entry per class — the same
// values, so sharing them is bit-identical and saves the dominant share
// of E-step and PredictProba flops.
type factorTables struct {
	logA, logMiss []float64
	thetaLog      []float64
}

func (m *MeTaL) buildTables(nLF, k, workers int) factorTables {
	ft := factorTables{
		logA:    make([]float64, nLF),
		logMiss: make([]float64, nLF),
	}
	if m.theta != nil {
		ft.thetaLog = make([]float64, nLF*k)
	}
	par.Chunks(workers, nLF, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			ft.logA[j] = math.Log(m.acc[j])
			ft.logMiss[j] = math.Log((1 - m.acc[j]) / float64(k-1))
			if ft.thetaLog != nil {
				for c := 0; c < k; c++ {
					ft.thetaLog[j*k+c] = math.Log(m.theta[j][c]) - math.Log(1-m.theta[j][c])
				}
			}
		}
	})
	return ft
}

// baseTerms returns the per-class log mass every covered example starts
// from: log π_c plus, with propensity on, the all-LFs-inactive term
// Σ_j log(1-θ_jc), summed in ascending LF order.
func (m *MeTaL) baseTerms(nLF, k int) []float64 {
	base := make([]float64, k)
	for c := range base {
		base[c] = math.Log(m.prior[c])
	}
	if m.theta != nil {
		for j := 0; j < nLF; j++ {
			for c := 0; c < k; c++ {
				base[c] += math.Log(1 - m.theta[j][c])
			}
		}
	}
	return base
}

// addVote adds LF j's factors for vote v onto one example's per-class
// log mass (len(row) == k): the vote factor unless useVote is false,
// plus, with propensity on, the activation odds. scoreRow and
// Predictor.Posterior both accumulate through it, which keeps the
// served posterior bit-identical to PredictProba's.
func (ft factorTables) addVote(row []float64, j, v int, useVote bool) {
	k := len(row)
	for c := 0; c < k; c++ {
		var factor float64
		if useVote {
			factor = ft.logMiss[j]
			if c == v {
				factor = ft.logA[j]
			}
		}
		if ft.thetaLog != nil {
			factor += ft.thetaLog[j*k+c]
		}
		row[c] += factor
	}
}

// scoreRow accumulates one example's active-LF factors onto row (already
// initialized with the base terms), visiting LFs in ascending order.
func (m *MeTaL) scoreRow(row []float64, js []int32, vs []int8, ft factorTables) {
	for t, j := range js {
		ft.addVote(row, int(j), int(vs[t]), !m.voteless[j])
	}
}

// Fit implements LabelModel.
func (m *MeTaL) Fit(vm *lf.VoteMatrix, numClasses int) error {
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
	pats := groupPatterns(rows)
	nCovered := 0
	for _, p := range pats.of {
		if p >= 0 {
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

	workers := m.Workers
	// One posterior row and log-normalizer per vote pattern; row i of
	// the matrix reads gamma[of[i]*k:].
	gamma := make([]float64, len(pats.rep)*numClasses)
	lse := make([]float64, len(pats.rep))

	prevLL := math.Inf(-1)
	for iter := 0; iter < m.MaxIter; iter++ {
		m.emIters = iter + 1
		// E-step. With propensity on, every covered document carries the
		// inactive-LF mass Σ_j log(1-θ_jc) as a per-class base term, and
		// each active LF swaps its log(1-θ_jc) for log θ_jc plus the vote
		// factor. Each distinct vote pattern is scored once.
		ft := m.buildTables(nLF, numClasses, workers)
		base := m.baseTerms(nLF, numClasses)
		m.posteriors(rows, pats, numClasses, workers, ft, base, gamma, lse)
		// Reductions row by row in ascending example order, off the
		// parallel path: the sum order — and therefore every bit of the
		// result — is independent of the worker count and of how rows
		// group into patterns. A pattern's value is added once per row
		// carrying it, never multiplied by its count (n·x is not a sum
		// of n copies of x in floating point).
		var ll float64
		for _, p := range pats.of {
			if p >= 0 {
				ll += lse[p]
			}
		}
		// Class mass over covered documents (for propensity denominators).
		classMass := make([]float64, numClasses)
		for _, p := range pats.of {
			if p < 0 {
				continue
			}
			for c, g := range gamma[int(p)*numClasses : int(p+1)*numClasses] {
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
					g := gamma[int(pats.of[id])*numClasses : int(pats.of[id]+1)*numClasses]
					correct += g[al.votes[t]]
					total++
					for c := 0; c < numClasses; c++ {
						activeMass[c] += g[c]
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

// PredictProba implements LabelModel. Uncovered examples get a nil row.
// Each distinct vote pattern is scored once (sharded across Workers
// goroutines) and copied to every row carrying it, so output is
// identical at every worker count.
func (m *MeTaL) PredictProba(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("metal: PredictProba before Fit")
	}
	if vm.NumLFs() != len(m.acc) {
		panic(fmt.Sprintf("metal: matrix has %d LFs, fitted on %d", vm.NumLFs(), len(m.acc)))
	}
	nLF := vm.NumLFs()
	k := m.k
	rows := vm.Rows()
	pats := groupPatterns(rows)
	post := make([]float64, len(pats.rep)*k)
	m.posteriors(rows, pats, k, m.Workers, m.buildTables(nLF, k, m.Workers), m.baseTerms(nLF, k), post, nil)

	out := make([][]float64, len(pats.of))
	nCov := 0
	for _, p := range pats.of {
		if p >= 0 {
			nCov++
		}
	}
	backing := make([]float64, nCov*k)
	off := 0
	for i, p := range pats.of {
		if p >= 0 {
			out[i] = backing[off : off+k : off+k]
			copy(out[i], post[int(p)*k:int(p+1)*k])
			off += k
		}
	}
	return out
}

func logSumExp(xs []float64) float64 {
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}
