package sampler

import (
	"math"
	"math/rand"

	"datasculpt/internal/textproc"
)

// The paper's related-work section surveys further active-learning
// strategies (query-by-committee, core-set selection) without evaluating
// them for LF design; this file implements both so the takeaway T3 —
// current active selection methods do not beat random sampling for LLM
// prompting — can be tested beyond the paper's three strategies.

// QBC is query-by-committee (Seung et al. 1992) over the two "committee
// members" the PWS pipeline maintains anyway: the label model's posterior
// and the interim end model's prediction on each train instance. It
// selects the unqueried instance where the two disagree most (total
// variation distance), falling back to random before both exist.
type QBC struct{}

// Name implements Sampler.
func (QBC) Name() string { return "qbc" }

// Next implements Sampler. Like Uncertain, the disagreement argmax
// streams over the used-marks in ascending id order instead of
// materializing the id set.
func (QBC) Next(s *State, rng *rand.Rand) int {
	count := s.unusedCount()
	if count == 0 {
		return -1
	}
	if s.trainProba == nil || s.labelProba == nil {
		return s.randomUnused(rng, count)
	}
	best, bestD := -1, -1.0
	for i, used := range s.Used {
		if used {
			continue
		}
		p, q := s.trainProba[i], s.labelProba[i]
		if p == nil || q == nil {
			continue
		}
		var tv float64
		for c := range p {
			tv += math.Abs(p[c] - q[c])
		}
		tv /= 2
		if tv > bestD {
			best, bestD = i, tv
		}
	}
	if best < 0 {
		return s.randomUnused(rng, count)
	}
	return best
}

// CoreSet is k-center-greedy selection (Sener & Savarese 2018): each call
// returns the unqueried instance farthest (cosine distance in feature
// space) from everything already queried, so queries spread over the
// input distribution instead of clustering. A candidate subsample keeps
// each call cheap on the large corpora.
type CoreSet struct {
	// Candidates bounds the instances scored per call (default 300).
	Candidates int
}

// NewCoreSet constructs the sampler with defaults.
func NewCoreSet() *CoreSet { return &CoreSet{Candidates: 300} }

// Name implements Sampler.
func (*CoreSet) Name() string { return "coreset" }

// Next implements Sampler. Candidate subsampling goes through
// State.sampleUnused: legacy shuffle below the reservoir threshold
// (bit-identical), an O(candidates)-memory reservoir above it.
func (c *CoreSet) Next(s *State, rng *rand.Rand) int {
	count := s.unusedCount()
	if count == 0 {
		return -1
	}
	if s.TrainVecs == nil {
		return s.randomUnused(rng, count)
	}
	var queried []*textproc.SparseVector
	for i, used := range s.Used {
		if used {
			queried = append(queried, s.TrainVecs[i])
		}
	}
	if len(queried) == 0 {
		return s.randomUnused(rng, count)
	}
	cand := c.Candidates
	if cand <= 0 {
		cand = 300
	}
	ids := s.sampleUnused(rng, cand)
	best, bestMin := ids[0], -1.0
	for _, i := range ids {
		minDist := math.Inf(1)
		for _, qv := range queried {
			d := 1 - s.TrainVecs[i].Cosine(qv)
			if d < minDist {
				minDist = d
			}
		}
		if minDist > bestMin {
			best, bestMin = i, minDist
		}
	}
	return best
}
