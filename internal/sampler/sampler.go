// Package sampler implements the query-instance selection strategies of
// paper §3.4: random sampling (the default), uncertainty sampling over the
// current downstream model's predictive entropy (Lewis 1995), and Select
// by Expected Utility (SEU, Hsieh et al. 2022 / Nemo), which scores
// instances by the expected utility of the LFs a user (here: the LLM)
// would plausibly derive from them.
package sampler

import (
	"math"
	"math/rand"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/metrics"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// State is the pipeline information available at selection time.
type State struct {
	// Dataset under labeling.
	Dataset *dataset.Dataset
	// Used marks train instances already queried.
	Used []bool
	// TrainVecs holds feature vectors of the train split for geometric
	// samplers (CoreSet); nil unless the pipeline populates it.
	TrainVecs []*textproc.SparseVector
	// TrainIndex and ValidIndex are shared inverted indices over the
	// respective splits (SEU uses them for coverage/accuracy estimates).
	TrainIndex, ValidIndex *lf.Index
	// Workers bounds the goroutines scoring-heavy samplers may fan out
	// to (<=1 means sequential). Selection results are bit-identical at
	// every setting — parallel sections only write per-index state.
	Workers int
	// Metrics receives sampler telemetry (sampler_seu_*); nil disables
	// it for free.
	Metrics *obs.Registry

	// validGold caches the validation gold labels, which are immutable
	// for the life of the run.
	validGold []int

	// trainProba holds the current end model's class probabilities over
	// the train split, or nil before the first interim model exists.
	// labelProba holds the current label model's posteriors over the
	// train split (nil entries for uncovered instances); used by QBC.
	// Both change only through SetPosteriors.
	trainProba, labelProba [][]float64
	// entropy caches metrics.Entropy of every non-nil trainProba row,
	// computed on first use after each SetPosteriors.
	entropy []float64
}

// SetPosteriors installs a new interim refresh: the end model's class
// probabilities over the train split and the label model's posteriors
// (nil entries for uncovered instances). It drops everything derived from
// the previous posteriors. The State reads the rows until the next call,
// so callers must not modify them in between.
func (s *State) SetPosteriors(end, lm [][]float64) {
	s.trainProba, s.labelProba = end, lm
	s.entropy = nil
}

// entropies returns the predictive entropy of every train instance under
// the current posteriors (0 where the row is nil), computed once per
// SetPosteriors.
func (s *State) entropies() []float64 {
	if s.entropy == nil {
		s.entropy = make([]float64, len(s.trainProba))
		for i, p := range s.trainProba {
			if p != nil {
				s.entropy[i] = metrics.Entropy(p)
			}
		}
	}
	return s.entropy
}

// ValidGold returns the validation split's gold labels, materialized
// once per State. SEU's keyword-accuracy estimates read them for every
// keyword; re-extracting them per candidate was a dominant allocation
// source.
func (s *State) ValidGold() []int {
	if s.validGold == nil {
		s.validGold = dataset.Labels(s.ValidIndex.Split())
	}
	return s.validGold
}

// unusedIDs lists the selectable instance ids.
func (s *State) unusedIDs() []int {
	out := make([]int, 0, len(s.Used))
	for i, u := range s.Used {
		if !u {
			out = append(out, i)
		}
	}
	return out
}

// unusedCount counts the selectable ids without materializing them.
func (s *State) unusedCount() int {
	n := 0
	for _, u := range s.Used {
		if !u {
			n++
		}
	}
	return n
}

// nthUnused returns the id of the r-th (0-based, ascending) unused
// instance — the streamed equivalent of unusedIDs()[r].
func (s *State) nthUnused(r int) int {
	for i, u := range s.Used {
		if u {
			continue
		}
		if r == 0 {
			return i
		}
		r--
	}
	return -1
}

// randomUnused draws uniformly among the count unused ids, consuming
// exactly one rng.Intn like the historical ids[rng.Intn(len(ids))] —
// bit-identical at every corpus size, O(1) memory.
func (s *State) randomUnused(rng *rand.Rand, count int) int {
	return s.nthUnused(rng.Intn(count))
}

// reservoirThreshold is the train-split size above which candidate
// subsampling switches from materialize-and-shuffle to reservoir
// sampling. It sits above every Table-1 train split at scale 1 (the
// largest, Agnews, has 96k), so runs on the reproduced corpora keep the
// historical rng consumption bit for bit; only out-of-core scale factors
// cross it. A var, not a const, so tests can lower it.
var reservoirThreshold = 1 << 17

// sampleUnused returns at most k unused ids. Below reservoirThreshold it
// reproduces the legacy behavior exactly — materialize the ascending ids
// and, only when k is binding, Fisher-Yates shuffle before truncation.
// Above the threshold it streams a uniform k-reservoir (Algorithm R) over
// the unused ids in O(k) memory.
func (s *State) sampleUnused(rng *rand.Rand, k int) []int {
	if len(s.Used) < reservoirThreshold {
		ids := s.unusedIDs()
		if k < len(ids) {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:k]
		}
		return ids
	}
	res := make([]int, 0, k)
	seen := 0
	for i, u := range s.Used {
		if u {
			continue
		}
		seen++
		if len(res) < k {
			res = append(res, i)
		} else if j := rng.Intn(seen); j < k {
			res[j] = i
		}
	}
	return res
}

// Sampler picks the next query instance. Next returns -1 when the pool is
// exhausted.
type Sampler interface {
	// Name identifies the strategy in reports.
	Name() string
	// Next returns the id of the next train instance to query.
	Next(s *State, rng *rand.Rand) int
}

// Random selects uniformly among unqueried instances — the paper's
// default strategy, and the best-performing one in its Table 4.
type Random struct{}

// Name implements Sampler.
func (Random) Name() string { return "random" }

// Next implements Sampler. The draw streams over the used-marks in two
// passes (count, then select), so no id slice is ever materialized; the
// selected id and rng consumption are bit-identical to the historical
// unusedIDs()[rng.Intn(len)] at every corpus size.
func (Random) Next(s *State, rng *rand.Rand) int {
	count := s.unusedCount()
	if count == 0 {
		return -1
	}
	return s.randomUnused(rng, count)
}

// Uncertain selects the unqueried instance with the highest predictive
// entropy under the current downstream model, falling back to random
// before the first model exists.
type Uncertain struct{}

// Name implements Sampler.
func (Uncertain) Name() string { return "uncertain" }

// Next implements Sampler. The entropy argmax streams over the
// used-marks in ascending id order (the order unusedIDs produced), so no
// id slice is materialized; the first of equal maxima wins. Entropies
// come from the State's per-refresh cache, so a call between refreshes
// costs one scan, not one entropy per unused instance.
func (Uncertain) Next(s *State, rng *rand.Rand) int {
	count := s.unusedCount()
	if count == 0 {
		return -1
	}
	if s.trainProba == nil {
		return s.randomUnused(rng, count)
	}
	ent := s.entropies()
	best, bestH := -1, -1.0
	for i, used := range s.Used {
		if used || s.trainProba[i] == nil {
			continue
		}
		if h := ent[i]; h > bestH {
			best, bestH = i, h
		}
	}
	if best < 0 {
		return s.randomUnused(rng, count)
	}
	return best
}

// SEU implements Select-by-Expected-Utility. For each candidate instance
// it enumerates the keyword LFs the instance could give rise to, scores
// each LF's utility as (estimated accuracy on the validation set) ×
// (train coverage), weights LFs by a softmax user model that prefers
// accurate LFs, and selects the instance with the highest expected
// utility.
//
// As the paper observes (Table 4), this concentrates selection on
// instances containing the same few high-utility keywords, which yields
// redundant LFs that the filters prune — reproducing SEU's smaller LF
// sets.
type SEU struct {
	// Candidates bounds how many unqueried instances are scored per call
	// (default 150); scoring every instance of Agnews would be wasteful.
	Candidates int
	// MaxKeywords bounds the candidate LFs enumerated per instance
	// (default 25).
	MaxKeywords int
	// Tau is the softmax sharpness of the user model (default 8).
	Tau float64

	// eng is the run-lifetime scoring engine (keyword-utility cache and
	// per-instance score memo). It is built lazily on first Next and
	// rebuilt whenever the State's indices change identity, so a SEU
	// value reused across runs stays correct.
	eng *seuEngine
}

// NewSEU constructs an SEU sampler with default parameters.
func NewSEU() *SEU { return &SEU{Candidates: 150, MaxKeywords: 25, Tau: 8} }

// Name implements Sampler.
func (*SEU) Name() string { return "seu" }

// Next implements Sampler. Scoring goes through the memoized engine
// (see seu_engine.go): every candidate's expected utility is fully
// determined by the immutable indices and gold labels, so an instance
// is scored at most once per run and repeat encounters are cache hits.
// The rng is consumed exactly as before — one Shuffle when the pool
// exceeds Candidates — so sampled indices are bit-identical to the
// naive scorer's; the only divergence is the exhausted-scoring
// fallback below.
func (u *SEU) Next(s *State, rng *rand.Rand) int {
	count := s.unusedCount()
	if count == 0 {
		return -1
	}
	cand := u.Candidates
	if cand <= 0 {
		cand = 150
	}
	ids := s.sampleUnused(rng, cand)
	eng := u.engine(s)
	eng.scoreBatch(s, ids)
	best, bestScore := -1, math.Inf(-1)
	for _, i := range ids {
		if score := eng.scores[i]; score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		// Every candidate yielded no scorable keyword (-Inf). Fall back
		// to an explicit rng draw like Random/Uncertain/QBC/CoreSet do,
		// instead of silently returning the first shuffled id.
		return ids[rng.Intn(len(ids))]
	}
	return best
}

// instanceScore computes the expected LF utility of one instance from
// scratch. It is the naive reference implementation the engine's
// property tests compare against; Next never calls it.
func (u *SEU) instanceScore(s *State, e *dataset.Example) float64 {
	e.EnsureTokens()
	// Enumerate every candidate and truncate afterwards, so the engine's
	// bounded enumeration is checked against an independent prefix.
	keywords := textproc.CandidateKeywords(e.Tokens, 0)
	maxK := u.MaxKeywords
	if maxK <= 0 {
		maxK = 25
	}
	if len(keywords) > maxK {
		keywords = keywords[:maxK]
	}
	tau := u.Tau
	if tau <= 0 {
		tau = 8
	}
	k := s.Dataset.NumClasses()
	gold := dataset.Labels(s.ValidIndex.Split())
	trainN := float64(s.TrainIndex.Size())

	type cand struct {
		acc, cov float64
	}
	var cands []cand
	for _, kw := range keywords {
		validDocs := s.ValidIndex.Docs(kw)
		trainDocs := s.TrainIndex.Docs(kw)
		if len(trainDocs) == 0 {
			continue
		}
		cov := float64(len(trainDocs)) / trainN
		// estimated accuracy of λ(kw,c) for the best class c on validation;
		// unseen keywords get the uninformative prior 1/k
		bestAcc := 1.0 / float64(k)
		if len(validDocs) > 0 {
			counts := make([]int, k)
			total := 0
			for _, id := range validDocs {
				if g := gold[id]; g >= 0 {
					counts[g]++
					total++
				}
			}
			if total > 0 {
				bc := 0
				for c := 1; c < k; c++ {
					if counts[c] > counts[bc] {
						bc = c
					}
				}
				// smoothed precision toward the prior
				bestAcc = (float64(counts[bc]) + 1) / (float64(total) + float64(k))
			}
		}
		cands = append(cands, cand{acc: bestAcc, cov: cov})
	}
	if len(cands) == 0 {
		return math.Inf(-1)
	}
	// softmax user model over accuracy
	var z float64
	for _, c := range cands {
		z += math.Exp(tau * c.acc)
	}
	var score float64
	for _, c := range cands {
		p := math.Exp(tau*c.acc) / z
		score += p * c.acc * c.cov
	}
	return score
}

// NeedsPosteriors reports whether the named sampler scores candidates
// by the interim model's posteriors (State.SetPosteriors), so
// the pipeline must refresh them as the LF set grows. Such a sampler's
// choices depend on live interim fits, which a replayed journal cannot
// reproduce.
func NeedsPosteriors(name string) bool { return name == "uncertain" || name == "qbc" }

// ByName resolves a sampler from its report name.
func ByName(name string) (Sampler, bool) {
	switch name {
	case "random":
		return Random{}, true
	case "uncertain":
		return Uncertain{}, true
	case "seu":
		return NewSEU(), true
	case "qbc":
		return QBC{}, true
	case "coreset":
		return NewCoreSet(), true
	default:
		return nil, false
	}
}
