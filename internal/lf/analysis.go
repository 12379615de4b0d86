package lf

import (
	"fmt"
	"sort"
	"strings"

	"datasculpt/internal/dataset"
)

// Summary is the per-LF diagnostic record of Analyze — the same view
// Snorkel's LFAnalysis offers: coverage, overlap and conflict rates over
// a split, plus empirical accuracy where gold labels exist. It is what a
// practitioner inspects to decide which LFs to keep, revise or drop.
type Summary struct {
	// Name identifies the LF; Class is its target class (Abstain for
	// per-instance annotation LFs).
	Name  string
	Class int
	// Active is the number of split examples the LF votes on; Coverage
	// the corresponding fraction.
	Active   int
	Coverage float64
	// Overlap is the fraction of examples where this LF votes alongside
	// at least one other LF; Conflict the fraction where at least one
	// co-voting LF disagrees.
	Overlap  float64
	Conflict float64
	// Correct/Incorrect and Accuracy are populated when gold labels are
	// available (AccuracyKnown).
	Correct, Incorrect int
	Accuracy           float64
	AccuracyKnown      bool
}

// Analyze computes per-LF summaries over a built vote matrix. gold may be
// nil (or hold dataset.NoLabel entries) for unlabeled splits; accuracy
// fields are filled only where labels exist.
func Analyze(vm *VoteMatrix, lfs []LabelFunction, gold []int) []Summary {
	if len(lfs) != vm.NumLFs() {
		panic(fmt.Sprintf("lf: %d LFs for a %d-column matrix", len(lfs), vm.NumLFs()))
	}
	n := vm.NumExamples()
	m := vm.NumLFs()
	out := make([]Summary, m)
	for j := range out {
		out[j] = Summary{Name: lfs[j].Name(), Class: lfs[j].TargetClass()}
	}
	if n == 0 {
		return out
	}

	// one pass over the rows: each example's voters and their agreement
	rows := vm.Rows()
	for i := 0; i < n; i++ {
		js, vs := rows.Row(i)
		if len(js) == 0 {
			continue
		}
		g := dataset.NoLabel
		if gold != nil {
			g = gold[i]
		}
		for t, j := range js {
			v := vs[t]
			s := &out[j]
			s.Active++
			if len(js) > 1 {
				s.Overlap++
				for _, v2 := range vs {
					if v2 != v {
						s.Conflict++
						break
					}
				}
			}
			if g != dataset.NoLabel {
				if int(v) == g {
					s.Correct++
				} else {
					s.Incorrect++
				}
			}
		}
	}

	for j := range out {
		s := &out[j]
		s.Coverage = float64(s.Active) / float64(n)
		if s.Active > 0 {
			s.Overlap /= float64(n)
			s.Conflict /= float64(n)
		}
		if labeled := s.Correct + s.Incorrect; labeled > 0 {
			s.Accuracy = float64(s.Correct) / float64(labeled)
			s.AccuracyKnown = true
		}
	}
	return out
}

// SortByCoverage orders summaries by descending coverage (stable on name).
func SortByCoverage(sums []Summary) {
	sort.SliceStable(sums, func(i, j int) bool {
		if sums[i].Coverage != sums[j].Coverage {
			return sums[i].Coverage > sums[j].Coverage
		}
		return sums[i].Name < sums[j].Name
	})
}

// FormatSummaries renders an analysis table.
func FormatSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %5s %8s %8s %8s %8s\n",
		"LF", "class", "cov", "overlap", "conflict", "acc")
	for _, s := range sums {
		acc := "-"
		if s.AccuracyKnown {
			acc = fmt.Sprintf("%.3f", s.Accuracy)
		}
		class := fmt.Sprint(s.Class)
		if s.Class == Abstain {
			class = "*"
		}
		fmt.Fprintf(&b, "%-44s %5s %8.4f %8.4f %8.4f %8s\n",
			truncate(s.Name, 44), class, s.Coverage, s.Overlap, s.Conflict, acc)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
