package sampler

import (
	"math"
	"time"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/par"
	"datasculpt/internal/textproc"
)

// seuEngine is SEU's incremental scoring engine. Every input to an
// instance's expected-utility score — the train/valid inverted indices,
// the validation gold labels, and the sampler's hyperparameters — is
// immutable for the life of a run, so the engine computes each keyword's
// utility and each instance's score exactly once and serves repeat
// encounters from memory. The naive scorer re-derived all of it per
// candidate per iteration, which is why SEU burned ~38M allocations on
// the Agnews benchmark while the rest of the pipeline had gone
// incremental.
type seuEngine struct {
	trainIx, validIx *lf.Index
	gold             []int // validation gold labels, shared with State
	trainN           float64
	k                int // number of classes

	// Resolved hyperparameters (defaults applied once).
	maxK int
	tau  float64

	// kw is the run-lifetime keyword-utility cache: canonical phrase →
	// smoothed validation accuracy + train coverage. It is written only
	// between scoring batches (merge phase), never during the parallel
	// section, so workers read it lock-free.
	kw map[string]kwUtil

	// scores memoizes per-instance expected utility by train id; NaN
	// marks "not yet scored" (a real score is finite or -Inf, never NaN).
	scores []float64

	m seuMetrics
}

// kwUtil is one keyword's cached utility estimate. ok is false for
// keywords with zero train coverage, which the user model skips.
type kwUtil struct {
	acc, cov float64
	ok       bool
}

// seuMetrics holds the sampler_seu_* registry handles. All handles are
// nil-safe: an un-instrumented State pays nothing.
type seuMetrics struct {
	keywords *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	seconds  *obs.Histogram
}

func newSEUMetrics(reg *obs.Registry) seuMetrics {
	return seuMetrics{
		keywords: reg.Counter("sampler_seu_keywords_scored_total",
			"distinct keywords whose utility entered the run-lifetime SEU cache"),
		hits: reg.Counter("sampler_seu_score_cache_hits_total",
			"SEU candidate instances served from the per-instance score memo"),
		misses: reg.Counter("sampler_seu_score_cache_misses_total",
			"SEU candidate instances scored for the first time"),
		seconds: reg.Histogram("sampler_seu_score_seconds",
			"wall clock of one SEU candidate-scoring batch", obs.DurationBuckets),
	}
}

// engine returns the run-lifetime scoring engine, building it on first
// use and rebuilding it when the State's indices change identity (a new
// run reuses the Sampler value but never the indices).
func (u *SEU) engine(s *State) *seuEngine {
	if u.eng == nil || u.eng.trainIx != s.TrainIndex || u.eng.validIx != s.ValidIndex {
		u.eng = newSEUEngine(s, u)
	}
	return u.eng
}

func newSEUEngine(s *State, u *SEU) *seuEngine {
	maxK := u.MaxKeywords
	if maxK <= 0 {
		maxK = 25
	}
	tau := u.Tau
	if tau <= 0 {
		tau = 8
	}
	// Pre-tokenization pass: scoring reads Tokens from worker
	// goroutines, and EnsureTokens mutates the example on first read.
	// Tokenizing the whole split up front (a no-op when the shared
	// indices already did it) makes the parallel phase read-only.
	dataset.PreTokenize(s.Dataset.Train)
	e := &seuEngine{
		trainIx: s.TrainIndex,
		validIx: s.ValidIndex,
		gold:    s.ValidGold(),
		trainN:  float64(s.TrainIndex.Size()),
		k:       s.Dataset.NumClasses(),
		maxK:    maxK,
		tau:     tau,
		kw:      make(map[string]kwUtil, 1024),
		scores:  make([]float64, len(s.Dataset.Train)),
		m:       newSEUMetrics(s.Metrics),
	}
	for i := range e.scores {
		e.scores[i] = math.NaN()
	}
	return e
}

// scoreBatch ensures every id in ids has a memoized score. Unscored
// candidates are scored in parallel: workers read the frozen keyword
// cache and write only their own candidate's slot; utilities for
// keywords not yet cached are computed into per-candidate overflow maps
// and merged sequentially afterwards. Because a keyword's utility is a
// pure function of the immutable indices, duplicate computation within
// a batch yields bit-identical values, so results are independent of
// the worker count and of what happens to be cached.
func (e *seuEngine) scoreBatch(s *State, ids []int) {
	var todo []int
	for _, id := range ids {
		if math.IsNaN(e.scores[id]) {
			todo = append(todo, id)
		}
	}
	e.m.hits.AddInt(len(ids) - len(todo))
	e.m.misses.AddInt(len(todo))
	if len(todo) == 0 {
		return
	}
	start := time.Now()
	train := s.Dataset.Train
	fresh := make([]map[string]kwUtil, len(todo))
	par.For(s.Workers, len(todo), 4, func(pos int) {
		id := todo[pos]
		score, local := e.scoreInstance(train[id])
		e.scores[id] = score
		fresh[pos] = local
	})
	for _, local := range fresh {
		for kw, util := range local {
			if _, ok := e.kw[kw]; !ok {
				e.kw[kw] = util
				e.m.keywords.Inc()
			}
		}
	}
	e.m.seconds.Observe(time.Since(start).Seconds())
}

// scoreInstance computes one instance's expected LF utility using
// cached keyword utilities where available. Utilities it had to compute
// are returned for the caller to merge into the shared cache (nil when
// everything hit). The arithmetic — enumeration order, smoothing,
// softmax accumulation — replays the naive scorer exactly, so scores
// are bit-identical to an uncached run.
func (e *seuEngine) scoreInstance(ex *dataset.Example) (float64, map[string]kwUtil) {
	keywords := textproc.CandidateKeywords(ex.Tokens, e.maxK)
	var local map[string]kwUtil
	type cand struct {
		acc, cov float64
	}
	var cands []cand
	for _, kw := range keywords {
		util, ok := e.kw[kw]
		if !ok {
			util = e.computeKeyword(kw)
			if local == nil {
				local = make(map[string]kwUtil, len(keywords))
			}
			local[kw] = util
		}
		if !util.ok {
			continue
		}
		cands = append(cands, cand{acc: util.acc, cov: util.cov})
	}
	if len(cands) == 0 {
		return math.Inf(-1), local
	}
	// softmax user model over accuracy
	var z float64
	for _, c := range cands {
		z += math.Exp(e.tau * c.acc)
	}
	var score float64
	for _, c := range cands {
		p := math.Exp(e.tau*c.acc) / z
		score += p * c.acc * c.cov
	}
	return score, local
}

// computeKeyword derives one keyword's utility from the shared indices:
// train coverage from the posting lists, and the smoothed validation
// accuracy of λ(kw, c) for the keyword's best class c. Unseen keywords
// keep the uninformative prior 1/k.
func (e *seuEngine) computeKeyword(kw string) kwUtil {
	nTrain := e.trainIx.CountDocs(kw)
	if nTrain == 0 {
		return kwUtil{}
	}
	util := kwUtil{cov: float64(nTrain) / e.trainN, ok: true}
	bestAcc := 1.0 / float64(e.k)
	counts := make([]int, e.k)
	total := 0
	e.validIx.ForEachDoc(kw, func(id int32) {
		if g := e.gold[id]; g >= 0 {
			counts[g]++
			total++
		}
	})
	if total > 0 {
		bc := 0
		for c := 1; c < e.k; c++ {
			if counts[c] > counts[bc] {
				bc = c
			}
		}
		// smoothed precision toward the prior
		bestAcc = (float64(counts[bc]) + 1) / (float64(total) + float64(e.k))
	}
	util.acc = bestAcc
	return util
}
