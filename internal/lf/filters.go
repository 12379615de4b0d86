package lf

import (
	"fmt"

	"datasculpt/internal/dataset"
	"datasculpt/internal/textproc"
)

// The three filters of paper §3.5. A candidate LF must pass validity,
// then accuracy (on the labeled validation set), then redundancy (against
// the already-accepted set) before joining the LF set. Each filter can be
// disabled for the Table 5 ablation.

// DefaultAccuracyThreshold is the validation-accuracy floor below which
// candidate LFs are pruned (paper default 0.6).
const DefaultAccuracyThreshold = 0.6

// DefaultMaxConsensus is the agreement ratio above which a candidate is
// considered redundant with an existing LF (paper default 0.95).
const DefaultMaxConsensus = 0.95

// RejectReason classifies why a candidate LF was dropped.
type RejectReason string

// Reject reasons reported by the filter chain.
const (
	RejectInvalid    RejectReason = "invalid"
	RejectInaccurate RejectReason = "inaccurate"
	RejectRedundant  RejectReason = "redundant"
	RejectDuplicate  RejectReason = "duplicate"
)

// ValidateCandidate implements the validity filter: the keyword must
// normalize to a 1-3 gram and the label must be a candidate class. On
// success it returns the constructed LF (entity-aware for relation tasks).
func ValidateCandidate(task dataset.TaskType, rawKeyword string, class, numClasses int) (LabelFunction, error) {
	if class < 0 || class >= numClasses {
		return nil, fmt.Errorf("validity: label %d outside [0,%d)", class, numClasses)
	}
	phrase, n := textproc.NormalizePhrase(rawKeyword)
	if n == 0 {
		return nil, fmt.Errorf("validity: empty keyword %q", rawKeyword)
	}
	if n > textproc.MaxKeywordLen {
		return nil, fmt.Errorf("validity: keyword %q is a %d-gram, max %d", rawKeyword, n, textproc.MaxKeywordLen)
	}
	if task == dataset.RelationClassification {
		return &EntityKeywordLF{Keyword: phrase, Class: class}, nil
	}
	return &KeywordLF{Keyword: phrase, Class: class}, nil
}

// AccuracyFilter prunes LFs whose accuracy on the labeled validation set
// falls below Threshold. An LF inactive on every validation instance
// passes (the paper keeps such LFs: no evidence against them).
type AccuracyFilter struct {
	Threshold float64
	index     *Index
	gold      []int
}

// Pass evaluates the LF on the validation set. It returns whether the LF
// survives, its measured accuracy, and how many validation instances it
// was active on (accuracy is meaningless when active == 0).
func (f *AccuracyFilter) Pass(cand LabelFunction) (ok bool, accuracy float64, active int) {
	correct := 0
	ids, votes := f.index.Eval(cand)
	for t, id := range ids {
		if f.gold[id] == dataset.NoLabel {
			continue
		}
		active++
		if int(votes[t]) == f.gold[id] {
			correct++
		}
	}
	if active == 0 {
		return true, 0, 0
	}
	accuracy = float64(correct) / float64(active)
	return accuracy >= f.Threshold, accuracy, active
}

// RedundancyFilter prunes candidates whose agreement with an accepted LF
// exceeds MaxConsensus over active instances (intersection-over-union of
// agreeing activations, measured on the train split). Activations are
// kept as sorted posting lists so each comparison costs O(active-set
// size) rather than O(train size) — hundreds of accepted LFs over 96k
// Agnews documents would otherwise dominate the pipeline.
type RedundancyFilter struct {
	MaxConsensus float64
	index        *Index
	accepted     []activeSet
}

// activeSet is an LF's sorted active document ids with their votes.
type activeSet struct {
	name  string
	ids   []int32
	votes []int8
}

// activeSetOf materializes the candidate's activations on the train split.
func (f *RedundancyFilter) activeSetOf(cand LabelFunction) activeSet {
	ids, votes := f.index.Eval(cand)
	return activeSet{name: cand.Name(), ids: ids, votes: votes}
}

// setConsensus is the agreement ratio of two LFs, the redundancy metric
// of the paper's filter: the number of examples where both vote and
// agree, divided by the number where either votes
// (intersection-over-union of agreeing activations). It merges the two
// sorted active sets in O(|a| + |b|).
func setConsensus(a, b activeSet) float64 {
	i, j, inter, union := 0, 0, 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			i++
			union++
		case a.ids[i] > b.ids[j]:
			j++
			union++
		default:
			if a.votes[i] == b.votes[j] {
				inter++
			}
			i++
			j++
			union++
		}
	}
	union += (len(a.ids) - i) + (len(b.ids) - j)
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Pass reports whether the candidate is non-redundant. When it fails, the
// name of the most-similar accepted LF and the consensus value are
// returned for diagnostics.
func (f *RedundancyFilter) Pass(cand LabelFunction) (ok bool, closest string, consensus float64) {
	set := f.activeSetOf(cand)
	worst := -1.0
	for _, acc := range f.accepted {
		c := setConsensus(set, acc)
		if c > worst {
			worst, closest = c, acc.name
		}
		if c > f.MaxConsensus {
			return false, acc.name, c
		}
	}
	if worst < 0 {
		worst = 0
	}
	return true, closest, worst
}

// Add registers an accepted LF so later candidates are compared to it.
func (f *RedundancyFilter) Add(accepted LabelFunction) {
	f.accepted = append(f.accepted, f.activeSetOf(accepted))
}

// FilterConfig selects which filters the pipeline applies — the Table 5
// ablation toggles.
type FilterConfig struct {
	// UseAccuracy enables the validation-accuracy filter.
	UseAccuracy bool
	// UseRedundancy enables the redundancy filter.
	UseRedundancy bool
	// AccuracyThreshold overrides DefaultAccuracyThreshold when positive.
	AccuracyThreshold float64
	// MaxConsensus overrides DefaultMaxConsensus when positive.
	MaxConsensus float64
}

// AllFilters is the paper's default configuration.
func AllFilters() FilterConfig {
	return FilterConfig{UseAccuracy: true, UseRedundancy: true}
}

// Rejected records one filtered-out candidate, for post-hoc inspection
// and for the revision loop (counterexample re-prompting).
type Rejected struct {
	Keyword string
	Class   int
	Reason  RejectReason
	// Accuracy is the measured validation accuracy for accuracy-filter
	// rejections (zero otherwise).
	Accuracy float64
}

// FilterChain applies the validity, accuracy and redundancy filters in
// order and tracks rejection statistics. It also deduplicates exact
// repeats by LF name regardless of configuration (re-adding the identical
// LF is never useful).
type FilterChain struct {
	task       dataset.TaskType
	numClasses int
	cfg        FilterConfig
	accuracy   *AccuracyFilter
	redundancy *RedundancyFilter
	names      map[string]struct{}
	accepted   []LabelFunction
	rejects    map[RejectReason]int
	rejected   []Rejected
}

// NewFilterChain wires the chain for one dataset over prebuilt train and
// valid indices. The pipeline shares one train index between the
// redundancy filter, the samplers and the final vote matrix; rebuilding
// it for Agnews' 96k documents is measurably wasteful.
func NewFilterChain(d *dataset.Dataset, cfg FilterConfig, trainIx, validIx *Index) *FilterChain {
	c := &FilterChain{
		task:       d.Task,
		numClasses: d.NumClasses(),
		cfg:        cfg,
		names:      make(map[string]struct{}),
		rejects:    make(map[RejectReason]int),
	}
	if cfg.UseAccuracy {
		threshold := cfg.AccuracyThreshold
		if threshold <= 0 {
			threshold = DefaultAccuracyThreshold
		}
		c.accuracy = &AccuracyFilter{
			Threshold: threshold,
			index:     validIx,
			gold:      dataset.Labels(d.Valid),
		}
	}
	if cfg.UseRedundancy {
		maxCons := cfg.MaxConsensus
		if maxCons <= 0 {
			maxCons = DefaultMaxConsensus
		}
		c.redundancy = &RedundancyFilter{MaxConsensus: maxCons, index: trainIx}
	}
	return c
}

// Offer runs a raw (keyword, class) candidate through the chain. It
// returns the accepted LF, or a nil LF plus the rejection reason.
func (c *FilterChain) Offer(rawKeyword string, class int) (LabelFunction, RejectReason) {
	cand, err := ValidateCandidate(c.task, rawKeyword, class, c.numClasses)
	if err != nil {
		c.rejects[RejectInvalid]++
		c.rejected = append(c.rejected, Rejected{Keyword: rawKeyword, Class: class, Reason: RejectInvalid})
		return nil, RejectInvalid
	}
	if _, dup := c.names[cand.Name()]; dup {
		c.rejects[RejectDuplicate]++
		return nil, RejectDuplicate
	}
	if c.accuracy != nil {
		if ok, acc, _ := c.accuracy.Pass(cand); !ok {
			c.rejects[RejectInaccurate]++
			c.rejected = append(c.rejected, Rejected{
				Keyword: rawKeyword, Class: class, Reason: RejectInaccurate, Accuracy: acc,
			})
			return nil, RejectInaccurate
		}
	}
	if c.redundancy != nil {
		if ok, _, _ := c.redundancy.Pass(cand); !ok {
			c.rejects[RejectRedundant]++
			c.rejected = append(c.rejected, Rejected{Keyword: rawKeyword, Class: class, Reason: RejectRedundant})
			return nil, RejectRedundant
		}
	}
	c.names[cand.Name()] = struct{}{}
	c.accepted = append(c.accepted, cand)
	if c.redundancy != nil {
		c.redundancy.Add(cand)
	}
	return cand, ""
}

// Seed force-registers already-accepted LFs — a frozen parent set the
// chain extends rather than re-litigates. Seeded LFs bypass the
// accuracy and redundancy filters (they were accepted by an earlier
// run and may score differently on a new corpus) but still feed the
// duplicate and redundancy bookkeeping, so later Offer calls cannot
// re-propose them.
func (c *FilterChain) Seed(lfs []LabelFunction) {
	for _, cand := range lfs {
		if _, dup := c.names[cand.Name()]; dup {
			continue
		}
		c.names[cand.Name()] = struct{}{}
		c.accepted = append(c.accepted, cand)
		if c.redundancy != nil {
			c.redundancy.Add(cand)
		}
	}
}

// Accepted returns the LFs that survived, in acceptance order.
func (c *FilterChain) Accepted() []LabelFunction { return c.accepted }

// Rejected returns the filtered-out candidates in rejection order
// (duplicates are not recorded; re-offering an accepted LF is not a
// rejection worth revising).
func (c *FilterChain) Rejected() []Rejected { return c.rejected }

// Rejections returns a copy of the per-reason rejection counts.
func (c *FilterChain) Rejections() map[RejectReason]int {
	out := make(map[RejectReason]int, len(c.rejects))
	for k, v := range c.rejects {
		out[k] = v
	}
	return out
}
