package lf

import (
	"fmt"

	"datasculpt/internal/dataset"
	"datasculpt/internal/par"
)

// VoteMatrix holds the votes of m label functions over n examples in one
// layout: per LF, the sparse active list — the ascending document ids
// the LF votes on, with the aligned votes. It is what keyword LFs
// naturally produce (each votes on a few percent of a split) and what
// makes every statistic and the label models O(nnz) instead of O(n·m).
// Readers that need an example's votes together take the row-major
// transpose from Rows.
//
// The matrix is append-only: AppendLFs grows it by evaluating only the
// new columns, which is how the pipeline's evaluator amortizes matrix
// construction across iterations (the LF set only ever grows during a
// run).
type VoteMatrix struct {
	n, m  int
	names []string
	// active[j] lists the ascending doc ids LF j votes on;
	// activeVotes[j] holds the aligned votes.
	active      [][]int32
	activeVotes [][]int8
}

// NewVoteMatrix returns an empty (zero-LF) matrix over n examples; grow
// it with AppendLFs.
func NewVoteMatrix(n int) *VoteMatrix {
	return &VoteMatrix{n: n}
}

// BuildVoteMatrix evaluates every LF over the indexed split
// sequentially; AppendLFs on a NewVoteMatrix fans the evaluation out.
func BuildVoteMatrix(ix *Index, lfs []LabelFunction) *VoteMatrix {
	vm := NewVoteMatrix(ix.Size())
	vm.AppendLFs(ix, lfs, 1)
	return vm
}

// Column is one LF's evaluation over a split, as Index.Eval returns it:
// the ascending ids of the documents the LF votes on and the aligned
// votes.
type Column struct {
	IDs   []int32
	Votes []int8
}

// AppendLFs appends one evaluated column per LF, fanning evaluation over
// at most workers goroutines. Existing columns are untouched — the
// incremental path behind the pipeline's per-iteration re-aggregation.
// It returns the number of columns added.
func (vm *VoteMatrix) AppendLFs(ix *Index, lfs []LabelFunction, workers int) int {
	if ix.Size() != vm.n {
		panic(fmt.Sprintf("lf: appending over a split of %d examples to a %d-example matrix", ix.Size(), vm.n))
	}
	return vm.appendColumns(lfs, workers, func(t int) Column {
		ids, votes := ix.Eval(lfs[t])
		return Column{IDs: ids, Votes: votes}
	})
}

// AppendColumns appends lfs with their ready columns over the matrix's
// examples (cols[t] is lfs[t]'s column), as AppendLFs would after
// evaluating them. It returns the number of columns added.
func (vm *VoteMatrix) AppendColumns(lfs []LabelFunction, cols []Column) int {
	if len(cols) != len(lfs) {
		panic(fmt.Sprintf("lf: appending %d columns for %d LFs", len(cols), len(lfs)))
	}
	return vm.appendColumns(lfs, 1, func(t int) Column { return cols[t] })
}

// appendColumns appends one column per LF, taking column t from col
// over at most workers goroutines.
func (vm *VoteMatrix) appendColumns(lfs []LabelFunction, workers int, col func(t int) Column) int {
	if len(lfs) == 0 {
		return 0
	}
	base := vm.m
	vm.names = append(vm.names, make([]string, len(lfs))...)
	vm.active = append(vm.active, make([][]int32, len(lfs))...)
	vm.activeVotes = append(vm.activeVotes, make([][]int8, len(lfs))...)
	// Dynamic scheduling with a small grain: column costs are wildly
	// uneven (a rare keyword touches a handful of postings, a generic
	// one thousands). Each index writes only its own column slots.
	par.For(workers, len(lfs), 2, func(t int) {
		c := col(t)
		// A column may hold a posting list owned by an index, so the
		// matrix keeps its own copy of the ids.
		kept := make([]int32, len(c.IDs))
		copy(kept, c.IDs)
		j := base + t
		vm.names[j] = lfs[t].Name()
		vm.active[j] = kept
		vm.activeVotes[j] = c.Votes
	})
	vm.m += len(lfs)
	return len(lfs)
}

// NumExamples returns n.
func (vm *VoteMatrix) NumExamples() int { return vm.n }

// NumLFs returns m.
func (vm *VoteMatrix) NumLFs() int { return vm.m }

// Active returns LF j's sparse column: the ascending document ids it
// votes on and the aligned votes (shared storage; callers must not
// mutate). This is the O(active) view the label models iterate.
func (vm *VoteMatrix) Active(j int) (ids []int32, votes []int8) {
	return vm.active[j], vm.activeVotes[j]
}

// RowView is the row-major transpose of a vote matrix: for each example,
// the LFs that vote on it, in ascending LF order, with their votes. That
// is the order every row reader accumulates in, so a model's floating-
// point sums do not depend on which view it reads.
type RowView struct {
	start []int // example i's entries are [start[i], start[i+1])
	lfs   []int32
	votes []int8
}

// Rows builds the row view in two O(nnz) passes over the sparse columns.
// It is built per call and not cached.
func (vm *VoteMatrix) Rows() RowView {
	start := make([]int, vm.n+1)
	for _, ids := range vm.active {
		for _, id := range ids {
			start[id+1]++
		}
	}
	for i := 0; i < vm.n; i++ {
		start[i+1] += start[i]
	}
	nnz := start[vm.n]
	rv := RowView{start: start, lfs: make([]int32, nnz), votes: make([]int8, nnz)}
	fill := append([]int(nil), start[:vm.n]...)
	for j, ids := range vm.active {
		votes := vm.activeVotes[j]
		for t, id := range ids {
			p := fill[id]
			rv.lfs[p] = int32(j)
			rv.votes[p] = votes[t]
			fill[id] = p + 1
		}
	}
	return rv
}

// NumRows returns the number of examples.
func (rv RowView) NumRows() int { return len(rv.start) - 1 }

// Row returns the LFs voting on example i, ascending, and the aligned
// votes (shared storage; callers must not mutate). Both are empty for
// an uncovered example.
func (rv RowView) Row(i int) (lfs []int32, votes []int8) {
	lo, hi := rv.start[i], rv.start[i+1]
	return rv.lfs[lo:hi], rv.votes[lo:hi]
}

// Stats is the single-pass summary of a vote matrix: the Table 2
// aggregate statistics plus the covered-example count, all computed in
// one O(nnz) sweep over the sparse columns.
type Stats struct {
	// MeanCoverage averages per-LF coverage ("LF Cov.").
	MeanCoverage float64
	// TotalCoverage is the fraction of examples covered by any LF
	// ("Total Cov."); CoveredCount is the absolute number.
	TotalCoverage float64
	CoveredCount  int
	// MeanLFAccuracy averages LF accuracy over LFs active on at least
	// one labeled example ("LF Acc."); AccuracyKnown is false when gold
	// was nil or no LF qualifies.
	MeanLFAccuracy float64
	AccuracyKnown  bool
}

// ComputeStats sweeps the sparse columns once. gold may be nil (accuracy
// statistics are skipped); workers bounds the per-LF fan-out (<= 1 is
// sequential; per-LF partials are written to per-index slots and reduced
// in column order, so the result is identical for every worker count).
func (vm *VoteMatrix) ComputeStats(gold []int, workers int) Stats {
	var s Stats
	if vm.n == 0 {
		return s
	}
	if gold != nil && len(gold) != vm.n {
		panic(fmt.Sprintf("lf: gold length %d != examples %d", len(gold), vm.n))
	}
	type lfStat struct {
		active  int // docs voted on
		graded  int // of those, with known gold
		correct int
	}
	perLF := make([]lfStat, vm.m)
	par.Chunks(workers, vm.m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			ids, votes := vm.active[j], vm.activeVotes[j]
			st := lfStat{active: len(ids)}
			if gold != nil {
				for t, id := range ids {
					if gold[id] == dataset.NoLabel {
						continue
					}
					st.graded++
					if int(votes[t]) == gold[id] {
						st.correct++
					}
				}
			}
			perLF[j] = st
		}
	})
	// Reductions in column order: identical for every worker count.
	covered := make([]bool, vm.n)
	var covSum, accSum float64
	graded := 0
	for j, st := range perLF {
		covSum += float64(st.active) / float64(vm.n)
		if st.graded > 0 {
			accSum += float64(st.correct) / float64(st.graded)
			graded++
		}
		for _, id := range vm.active[j] {
			covered[id] = true
		}
	}
	for _, b := range covered {
		if b {
			s.CoveredCount++
		}
	}
	if vm.m > 0 {
		s.MeanCoverage = covSum / float64(vm.m)
	}
	s.TotalCoverage = float64(s.CoveredCount) / float64(vm.n)
	if graded > 0 {
		s.MeanLFAccuracy = accSum / float64(graded)
		s.AccuracyKnown = true
	}
	return s
}

// TotalCoverage returns the fraction of examples covered by any LF — the
// "Total Cov." statistic of Table 2.
func (vm *VoteMatrix) TotalCoverage() float64 {
	if vm.n == 0 {
		return 0
	}
	return vm.ComputeStats(nil, 1).TotalCoverage
}

// LFAccuracy returns the accuracy of LF j on the examples where it is
// active and the gold label is known, together with the number of such
// examples. Examples with dataset.NoLabel gold are skipped.
func (vm *VoteMatrix) LFAccuracy(j int, gold []int) (acc float64, active int) {
	if len(gold) != vm.n {
		panic(fmt.Sprintf("lf: gold length %d != examples %d", len(gold), vm.n))
	}
	correct := 0
	ids, votes := vm.active[j], vm.activeVotes[j]
	for t, id := range ids {
		if gold[id] == dataset.NoLabel {
			continue
		}
		active++
		if int(votes[t]) == gold[id] {
			correct++
		}
	}
	if active == 0 {
		return 0, 0
	}
	return float64(correct) / float64(active), active
}

// MajorityVotes returns, per example, the plurality class among active
// votes (ties broken toward the lowest class), or Abstain for uncovered
// examples. The triplet label model takes its class prior from it. The
// sweep is O(nnz) over the sparse columns plus an O(n·numClasses) tally.
func (vm *VoteMatrix) MajorityVotes(numClasses int) []int {
	out := make([]int, vm.n)
	counts := make([]int32, vm.n*numClasses)
	covered := make([]bool, vm.n)
	for j, ids := range vm.active {
		votes := vm.activeVotes[j]
		for t, id := range ids {
			counts[int(id)*numClasses+int(votes[t])]++
			covered[id] = true
		}
	}
	for i := 0; i < vm.n; i++ {
		if !covered[i] {
			out[i] = Abstain
			continue
		}
		base := i * numClasses
		best := 0
		for c := 1; c < numClasses; c++ {
			if counts[base+c] > counts[base+best] {
				best = c
			}
		}
		out[i] = best
	}
	return out
}

// Names returns the LF names in column order (shared storage).
func (vm *VoteMatrix) Names() []string { return vm.names }
