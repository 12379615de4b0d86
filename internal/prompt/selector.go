package prompt

import (
	"fmt"
	"math/rand"
	"sort"

	"datasculpt/internal/ann"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// DefaultShots is the number of in-context examples per prompt (the paper
// selects ten examples per dataset).
const DefaultShots = 10

// ExampleSelector chooses annotated in-context examples for one query.
type ExampleSelector interface {
	// Name identifies the strategy in reports.
	Name() string
	// Select returns up to k demonstrations for the query instance.
	Select(query *dataset.Example, k int) []Demonstration
}

// ClassBalanced selects a fixed, class-balanced demonstration set from
// the validation split, annotated once up front — the paper's default
// ("we select ten examples per dataset from the validation set ... and
// manually provide keywords and explanations"). The same demonstrations
// are reused for every query.
type ClassBalanced struct {
	demos []Demonstration
}

// NewClassBalanced samples k validation examples balanced across classes.
func NewClassBalanced(d *dataset.Dataset, k int, seed int64) (*ClassBalanced, error) {
	if k <= 0 {
		k = DefaultShots
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make([][]*dataset.Example, d.NumClasses())
	for _, e := range d.Valid {
		byClass[e.Label] = append(byClass[e.Label], e)
	}
	for c, list := range byClass {
		if len(list) == 0 {
			return nil, fmt.Errorf("class-balanced selector: class %d absent from validation split", c)
		}
	}
	sel := &ClassBalanced{}
	perClass := k / d.NumClasses()
	if perClass == 0 {
		perClass = 1
	}
	for c, list := range byClass {
		idx := rng.Perm(len(list))
		take := perClass
		// spread the remainder over the first classes
		if rem := k - perClass*d.NumClasses(); c < rem {
			take++
		}
		if take > len(idx) {
			take = len(idx)
		}
		for _, i := range idx[:take] {
			sel.demos = append(sel.demos, AnnotateDemonstration(d, list[i]))
		}
	}
	// interleave classes so the prompt alternates labels
	sort.SliceStable(sel.demos, func(i, j int) bool {
		return sel.demos[i].Label < sel.demos[j].Label
	})
	interleaved := make([]Demonstration, 0, len(sel.demos))
	buckets := make([][]Demonstration, d.NumClasses())
	for _, demo := range sel.demos {
		buckets[demo.Label] = append(buckets[demo.Label], demo)
	}
	for len(interleaved) < len(sel.demos) {
		for c := range buckets {
			if len(buckets[c]) > 0 {
				interleaved = append(interleaved, buckets[c][0])
				buckets[c] = buckets[c][1:]
			}
		}
	}
	sel.demos = interleaved
	return sel, nil
}

// Name implements ExampleSelector.
func (s *ClassBalanced) Name() string { return "class-balanced" }

// Select implements ExampleSelector: the fixed set, clipped to k.
func (s *ClassBalanced) Select(_ *dataset.Example, k int) []Demonstration {
	if k <= 0 || k > len(s.demos) {
		k = len(s.demos)
	}
	return s.demos[:k]
}

// DefaultANNThreshold is the demonstration-pool size at which NewKATEWithOptions
// starts building the LSH index. It sits above every validation split of
// the paper's Table 1 at scale 1 (the largest, Agnews, has 12k), so runs
// on the reproduced corpora keep the exact scan bit-for-bit; only the
// out-of-core scale knob crosses it.
const DefaultANNThreshold = 16384

// DefaultANNMultiplier is the shortlist size as a multiple of the
// requested k: the LSH index gathers multiplier*k candidates which are
// then exactly re-ranked.
const DefaultANNMultiplier = 16

// KATEOptions tunes the retrieval path of a KATE selector. The zero
// value reproduces the historical exact-scan selector on every corpus
// below DefaultANNThreshold.
type KATEOptions struct {
	// ANNThreshold is the pool size at or above which the LSH index is
	// built (0 selects DefaultANNThreshold; negative disables ANN
	// retrieval entirely, forcing the exact scan at any size).
	ANNThreshold int
	// CandidateMultiplier sizes the LSH shortlist as multiplier*k
	// exact-reranked candidates (0 selects DefaultANNMultiplier).
	CandidateMultiplier int
	// Seed derives the LSH projections (reproducible at any worker
	// count).
	Seed int64
	// Workers bounds index-build parallelism (<= 1 sequential).
	Workers int
	// Metrics receives kate_* counters; nil disables them for free.
	Metrics *obs.Registry
}

// KATE selects the validation examples nearest to the query in feature
// space (Liu et al. 2021). Annotations are generated automatically (the
// paper uses the LLM itself for this since manual annotation per query is
// impractical; here the same annotation routine plays that role — see
// AnnotateDemonstration).
//
// Below the ANN threshold every Select is an exact cosine scan; at or
// above it, an ann.Index shortlists multiplier*k candidates which are
// exactly re-ranked, so whenever the true top-k are inside the shortlist
// the selected demonstrations are identical to the exact scan's.
//
// A KATE selector is not safe for concurrent Select calls: it reuses a
// scratch scoring buffer across calls (the pipeline queries it from a
// single loop).
type KATE struct {
	feat  *textproc.Featurizer
	valid []*dataset.Example
	vecs  []*textproc.SparseVector
	// norms caches each stored vector's Euclidean norm so Select never
	// re-derives them; similarities are computed as Dot/(qn*norms[i]),
	// the exact arithmetic of SparseVector.Cosine.
	norms []float64
	demos []Demonstration

	index *ann.Index // nil below the threshold
	mult  int

	// scratch is the reusable scoring buffer (sim descending, idx
	// ascending); sorting goes through the *kateScored pointer so the
	// steady-state Select allocates nothing per stored example.
	scratch kateScored

	annQueries, exactQueries *obs.Counter
	shortlisted              *obs.Counter
}

// kateScored sorts scored pool indices by similarity descending, index
// ascending — the unique total order both retrieval paths share.
type kateScored []struct {
	idx int32
	sim float64
}

func (s *kateScored) Len() int      { return len(*s) }
func (s *kateScored) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
func (s *kateScored) Less(i, j int) bool {
	a, b := (*s)[i], (*s)[j]
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.idx < b.idx
}

// NewKATEWithOptions builds the retriever over the validation split
// using the given fitted featurizer (shared with the end model, as BERT
// is in the paper); zero options select the defaults.
func NewKATEWithOptions(d *dataset.Dataset, feat *textproc.Featurizer, opts KATEOptions) (*KATE, error) {
	if !feat.Fitted() {
		return nil, fmt.Errorf("kate: featurizer not fitted")
	}
	if opts.ANNThreshold == 0 {
		opts.ANNThreshold = DefaultANNThreshold
	}
	if opts.CandidateMultiplier <= 0 {
		opts.CandidateMultiplier = DefaultANNMultiplier
	}
	k := &KATE{
		feat:         feat,
		valid:        d.Valid,
		mult:         opts.CandidateMultiplier,
		annQueries:   opts.Metrics.Counter("kate_ann_queries_total", "KATE selections answered via the LSH shortlist"),
		exactQueries: opts.Metrics.Counter("kate_exact_queries_total", "KATE selections answered by the exact cosine scan"),
		shortlisted:  opts.Metrics.Counter("kate_shortlist_candidates_total", "candidates exactly re-ranked by ANN selections"),
	}
	k.vecs = make([]*textproc.SparseVector, len(d.Valid))
	k.norms = make([]float64, len(d.Valid))
	k.demos = make([]Demonstration, len(d.Valid))
	for i, e := range d.Valid {
		k.vecs[i] = feat.Transform(e.FeatureTokens())
		k.norms[i] = k.vecs[i].Norm()
		k.demos[i] = AnnotateDemonstration(d, e)
	}
	if opts.ANNThreshold > 0 && len(k.vecs) >= opts.ANNThreshold {
		k.index = ann.New(ann.Config{
			Dim:     feat.Dim,
			Seed:    opts.Seed,
			Workers: opts.Workers,
		})
		k.index.Add(k.vecs)
	}
	return k, nil
}

// Name implements ExampleSelector.
func (k *KATE) Name() string { return "kate" }

// ANNEnabled reports whether Select goes through the LSH index.
func (k *KATE) ANNEnabled() bool { return k.index != nil }

// Select implements ExampleSelector: the k nearest validation examples by
// cosine similarity, most similar last (closest to the query in the
// prompt, the ordering KATE recommends).
func (k *KATE) Select(query *dataset.Example, n int) []Demonstration {
	if n <= 0 {
		n = DefaultShots
	}
	qv := k.feat.Transform(query.FeatureTokens())
	qn := qv.Norm()

	if k.index != nil {
		if short := k.index.Candidates(qv, k.mult*n); len(short) < len(k.vecs) {
			k.annQueries.Inc()
			k.shortlisted.AddInt(len(short))
			k.scratch = k.scratch[:0]
			for _, id := range short {
				k.score(qv, qn, id)
			}
			return k.take(n)
		}
	}
	k.exactQueries.Inc()
	k.scratch = k.scratch[:0]
	for i := range k.vecs {
		k.score(qv, qn, int32(i))
	}
	return k.take(n)
}

// score appends pool entry id's similarity to the scratch buffer using
// the cached norms. The zero-norm guard and the Dot/(nv*no) arithmetic
// mirror SparseVector.Cosine exactly, so scores are bit-identical to the
// historical qv.Cosine(v) scan.
func (k *KATE) score(qv *textproc.SparseVector, qn float64, id int32) {
	var sim float64
	if vn := k.norms[id]; qn != 0 && vn != 0 {
		sim = qv.Dot(k.vecs[id]) / (qn * vn)
	}
	k.scratch = append(k.scratch, struct {
		idx int32
		sim float64
	}{id, sim})
}

// take sorts the scratch buffer and returns the top n demonstrations,
// most similar last.
func (k *KATE) take(n int) []Demonstration {
	sort.Sort(&k.scratch)
	if n > len(k.scratch) {
		n = len(k.scratch)
	}
	out := make([]Demonstration, n)
	for i := 0; i < n; i++ {
		// reverse order: most similar example adjacent to the query
		out[n-1-i] = k.demos[k.scratch[i].idx]
	}
	return out
}
