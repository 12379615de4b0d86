package labelmodel

import (
	"encoding/json"
	"fmt"
	"math"

	"datasculpt/internal/lf"
)

// A fitted MeTaL is part of a run's model artifact: the per-LF accuracy
// and propensity parameters are what turn a raw LF vote row into a
// calibrated posterior, both offline (PredictProba over a matrix) and
// online (Predictor over one example at a time). The stored form carries
// the hyperparameters and the fitted parameters; warm-start scratch state
// and fit diagnostics are not persisted.

// metalJSON is the stored form of a fitted MeTaL model.
type metalJSON struct {
	K                       int         `json:"k"`
	MaxIter                 int         `json:"max_iter"`
	Tol                     float64     `json:"tol"`
	ModelPropensity         bool        `json:"model_propensity"`
	SuppressSingleClassVote bool        `json:"suppress_single_class_vote,omitempty"`
	LearnPrior              bool        `json:"learn_prior,omitempty"`
	Acc                     []float64   `json:"acc"`
	Theta                   [][]float64 `json:"theta,omitempty"`
	Prior                   []float64   `json:"prior"`
	Voteless                []bool      `json:"voteless,omitempty"`
}

// NumLFs returns how many LF columns the model was fitted on (0 before
// Fit).
func (m *MeTaL) NumLFs() int { return len(m.acc) }

// NumClasses returns the class count the model was fitted for (0 before
// Fit).
func (m *MeTaL) NumClasses() int { return m.k }

// MarshalJSON implements json.Marshaler. Only fitted models are
// serializable.
func (m *MeTaL) MarshalJSON() ([]byte, error) {
	if m.k == 0 {
		return nil, fmt.Errorf("metal: cannot serialize before Fit")
	}
	return json.Marshal(metalJSON{
		K:                       m.k,
		MaxIter:                 m.MaxIter,
		Tol:                     m.Tol,
		ModelPropensity:         m.ModelPropensity,
		SuppressSingleClassVote: m.SuppressSingleClassVote,
		LearnPrior:              m.LearnPrior,
		Acc:                     m.acc,
		Theta:                   m.theta,
		Prior:                   m.prior,
		Voteless:                m.voteless,
	})
}

// UnmarshalJSON implements json.Unmarshaler, validating every parameter.
// The restored model predicts (PredictProba, NewPredictor) exactly like
// the fitted original; Workers resets to sequential.
func (m *MeTaL) UnmarshalJSON(data []byte) error {
	var in metalJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("metal: decoding: %w", err)
	}
	if in.K < 2 {
		return fmt.Errorf("metal: stored model has %d classes", in.K)
	}
	if len(in.Prior) != in.K {
		return fmt.Errorf("metal: %d priors for %d classes", len(in.Prior), in.K)
	}
	var priorSum float64
	for c, p := range in.Prior {
		if !(p > 0 && p < 1) { // also rejects NaN
			return fmt.Errorf("metal: prior[%d] = %v out of (0,1)", c, p)
		}
		priorSum += p
	}
	if math.Abs(priorSum-1) > 1e-9 {
		return fmt.Errorf("metal: priors sum to %v, want 1", priorSum)
	}
	for j, a := range in.Acc {
		if !(a > 0 && a < 1) {
			return fmt.Errorf("metal: acc[%d] = %v out of (0,1)", j, a)
		}
	}
	if in.Theta != nil {
		if len(in.Theta) != len(in.Acc) {
			return fmt.Errorf("metal: %d propensity rows for %d LFs", len(in.Theta), len(in.Acc))
		}
		for j, row := range in.Theta {
			if len(row) != in.K {
				return fmt.Errorf("metal: theta[%d] has %d classes, want %d", j, len(row), in.K)
			}
			for c, th := range row {
				if !(th > 0 && th < 1) {
					return fmt.Errorf("metal: theta[%d][%d] = %v out of (0,1)", j, c, th)
				}
			}
		}
	}
	if in.Voteless != nil && len(in.Voteless) != len(in.Acc) {
		return fmt.Errorf("metal: %d voteless flags for %d LFs", len(in.Voteless), len(in.Acc))
	}
	m.MaxIter = in.MaxIter
	m.Tol = in.Tol
	m.ModelPropensity = in.ModelPropensity
	m.SuppressSingleClassVote = in.SuppressSingleClassVote
	m.LearnPrior = in.LearnPrior
	m.Workers = 0
	m.k = in.K
	m.acc = in.Acc
	m.theta = in.Theta
	m.prior = in.Prior
	m.voteless = in.Voteless
	if m.voteless == nil {
		m.voteless = make([]bool, len(m.acc))
	}
	m.warmAcc, m.warmTheta, m.warmPrior, m.warmK = nil, nil, nil, 0
	m.emIters, m.warmLFs = 0, 0
	return nil
}

// Predictor scores single examples against a fitted model's parameters.
// It precomputes the per-LF factor tables and the all-inactive base terms
// once, so serving one example costs O(active LFs · classes) with no
// logarithms on the hot path. Posterior is bit-identical to the row
// PredictProba would produce for the same votes: both accumulate the same
// precomputed factors in ascending LF order.
//
// A Predictor is immutable after construction and safe for concurrent
// use; it snapshots the parameters, so refitting the donor model does not
// perturb it.
type Predictor struct {
	k        int
	voteless []bool
	ft       factorTables
	base     []float64
}

// NewPredictor builds a Predictor from the fitted parameters. It panics
// before Fit (or a successful UnmarshalJSON), mirroring PredictProba.
func (m *MeTaL) NewPredictor() *Predictor {
	if m.k == 0 {
		panic("metal: NewPredictor before Fit")
	}
	nLF := len(m.acc)
	return &Predictor{
		k:        m.k,
		voteless: append([]bool(nil), m.voteless...),
		ft:       m.buildTables(nLF, m.k, 1),
		base:     m.baseTerms(nLF, m.k),
	}
}

// NumClasses returns the class count of the underlying model.
func (p *Predictor) NumClasses() int { return p.k }

// Posterior returns the class posterior for one example given its active
// LF votes: js lists the active LF column indices in ascending order with
// vs the aligned votes (the shape lf.ApplyAll produces). An uncovered
// example (no active LFs) returns nil, matching PredictProba's nil rows.
// Out-of-range indices or votes panic: they indicate a vote row built
// against a different LF set than the model was fitted on.
func (p *Predictor) Posterior(js, vs []int) []float64 {
	if len(js) != len(vs) {
		panic(fmt.Sprintf("metal: %d LF indices for %d votes", len(js), len(vs)))
	}
	if len(js) == 0 {
		return nil
	}
	row := make([]float64, p.k)
	copy(row, p.base)
	for t, j := range js {
		if j < 0 || j >= len(p.voteless) {
			panic(fmt.Sprintf("metal: LF index %d out of range (fitted on %d)", j, len(p.voteless)))
		}
		v := vs[t]
		if v == lf.Abstain {
			continue
		}
		if v < 0 || v >= p.k {
			panic(fmt.Sprintf("metal: vote %d out of range for %d classes", v, p.k))
		}
		p.ft.addVote(row, j, v, !p.voteless[j])
	}
	l := logSumExp(row)
	for c := range row {
		row[c] = math.Exp(row[c] - l)
	}
	return row
}
