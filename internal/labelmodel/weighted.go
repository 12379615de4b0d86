package labelmodel

import (
	"fmt"
	"math"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
)

// WeightedVote aggregates LF votes with fixed log-odds weights derived
// from externally measured LF accuracies — typically the labeled
// validation split that DataSculpt's accuracy filter already uses. It
// learns nothing from the unlabeled data (Fit only validates shapes),
// making it a strong, simple reference point between majority vote and
// the EM models: when a trustworthy validation set exists, supervised
// accuracy estimates beat unsupervised ones at any coverage level.
type WeightedVote struct {
	// Accuracies are per-LF accuracy estimates in (0,1); values are
	// clamped away from the boundaries when converted to log-odds.
	Accuracies []float64

	k int
}

// NewWeightedVote builds the model from precomputed accuracy estimates.
func NewWeightedVote(accuracies []float64) *WeightedVote {
	return &WeightedVote{Accuracies: accuracies}
}

// NewWeightedVoteFromValidation measures each LF's accuracy on a labeled
// validation split (LFs inactive there get the neutral estimate 0.5 —
// zero weight). It builds a throwaway inverted index over the split;
// callers fitting repeatedly against the same split (the pipeline's
// per-iteration interim refreshes) should share one index via
// NewWeightedVoteFromValidationIndexed instead.
func NewWeightedVoteFromValidation(valid []*dataset.Example, lfs []lf.LabelFunction) *WeightedVote {
	return NewWeightedVoteFromValidationIndexed(lf.NewIndex(valid), lfs)
}

// NewWeightedVoteFromValidationIndexed is NewWeightedVoteFromValidation
// over a prebuilt validation index, the way lf.NewFilterChain
// reuses shared indices: the index is immutable, so one build serves
// every fit of a run.
func NewWeightedVoteFromValidationIndexed(ix *lf.Index, lfs []lf.LabelFunction) *WeightedVote {
	gold := dataset.Labels(ix.Split())
	vm := lf.BuildVoteMatrix(ix, lfs)
	accs := make([]float64, len(lfs))
	for j := range lfs {
		acc, active := vm.LFAccuracy(j, gold)
		if active == 0 {
			accs[j] = 0.5
			continue
		}
		// Laplace smoothing keeps tiny validation samples from producing
		// infinite log-odds.
		accs[j] = (acc*float64(active) + 1) / (float64(active) + 2)
	}
	return NewWeightedVote(accs)
}

// Name implements LabelModel.
func (m *WeightedVote) Name() string { return "weighted-vote" }

// Fit implements LabelModel.
func (m *WeightedVote) Fit(vm *lf.VoteMatrix, numClasses int) error {
	if numClasses < 2 {
		return fmt.Errorf("weighted vote: need >=2 classes, got %d", numClasses)
	}
	if len(m.Accuracies) != vm.NumLFs() {
		return fmt.Errorf("weighted vote: %d accuracies for %d LFs", len(m.Accuracies), vm.NumLFs())
	}
	m.k = numClasses
	return nil
}

// PredictProba implements LabelModel.
func (m *WeightedVote) PredictProba(vm *lf.VoteMatrix) [][]float64 {
	if m.k == 0 {
		panic("weighted vote: PredictProba before Fit")
	}
	if vm.NumLFs() != len(m.Accuracies) {
		panic(fmt.Sprintf("weighted vote: matrix has %d LFs, configured with %d", vm.NumLFs(), len(m.Accuracies)))
	}
	rows := vm.Rows()
	out := make([][]float64, rows.NumRows())
	scores := make([]float64, m.k)
	for i := range out {
		for c := range scores {
			scores[c] = 0
		}
		any := false
		js, vs := rows.Row(i)
		for t, j := range js {
			v := int(vs[t])
			if v >= m.k {
				continue
			}
			any = true
			a := m.Accuracies[j]
			if a < 0.02 {
				a = 0.02
			}
			if a > 0.98 {
				a = 0.98
			}
			scores[v] += math.Log(a / (1 - a))
		}
		if !any {
			continue
		}
		lse := logSumExp(scores)
		p := make([]float64, m.k)
		for c := range p {
			p[c] = math.Exp(scores[c] - lse)
		}
		out[i] = p
	}
	return out
}
