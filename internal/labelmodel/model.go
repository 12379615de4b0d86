// Package labelmodel implements the label models that aggregate noisy LF
// votes into probabilistic training labels: a majority-vote baseline, a
// MeTaL-style generative model fit with EM (the label model the paper
// uses on every configuration), and a FlyingSquid-style triplet model for
// binary tasks.
package labelmodel

import (
	"fmt"

	"datasculpt/internal/lf"
)

// LabelModel learns LF reliabilities from a vote matrix and produces
// per-example class posteriors.
type LabelModel interface {
	// Name identifies the model in reports.
	Name() string
	// Fit estimates parameters from the (typically unlabeled) train vote
	// matrix.
	Fit(vm *lf.VoteMatrix, numClasses int) error
	// PredictProba returns one probability vector per example, or nil for
	// examples on which every LF abstains (the caller decides whether to
	// drop them or assign the dataset's default class). The matrix must
	// have the same LF columns, in the same order, as the one passed to
	// Fit.
	PredictProba(vm *lf.VoteMatrix) [][]float64
}

// MajorityVote is the standard PWS baseline: the posterior is the
// normalized histogram of active votes.
type MajorityVote struct {
	k int
}

// NewMajorityVote constructs the model.
func NewMajorityVote() *MajorityVote { return &MajorityVote{} }

// Name implements LabelModel.
func (m *MajorityVote) Name() string { return "majority-vote" }

// Fit implements LabelModel. Majority vote has no parameters; Fit only
// records the class count.
func (m *MajorityVote) Fit(vm *lf.VoteMatrix, numClasses int) error {
	if numClasses < 2 {
		return fmt.Errorf("majority vote: need >=2 classes, got %d", numClasses)
	}
	m.k = numClasses
	return nil
}

// PredictProba implements LabelModel.
func (m *MajorityVote) PredictProba(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("majority vote: PredictProba before Fit")
	}
	rows := vm.Rows()
	out := make([][]float64, rows.NumRows())
	counts := make([]float64, m.k)
	for i := range out {
		for c := range counts {
			counts[c] = 0
		}
		total := 0.0
		_, vs := rows.Row(i)
		for _, v := range vs {
			if int(v) >= m.k {
				continue
			}
			counts[v]++
			total++
		}
		if total == 0 {
			continue // nil: uncovered
		}
		p := make([]float64, m.k)
		for c := range p {
			p[c] = counts[c] / total
		}
		out[i] = p
	}
	return out
}
