package textproc

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"datasculpt/internal/par"
)

// DefaultFeatureDim is the default width of hashed feature vectors. 2^13
// buckets keep collisions rare for the vocabularies in this repo while the
// end model stays fast on the largest corpus (Agnews, 96k documents).
const DefaultFeatureDim = 8192

// Featurizer converts token sequences into hashed TF-IDF sparse vectors.
// It must be fitted on a corpus (typically the train split) before use so
// that inverse document frequencies are available. Fitting and transforming
// are deterministic: the same corpus always yields the same vectors.
type Featurizer struct {
	Dim int
	// Workers bounds the goroutines TransformAll fans out over (<= 1
	// sequential; every worker count yields identical vectors since each
	// document is transformed independently).
	Workers int
	// df maps hashed bucket -> number of fitted documents containing at
	// least one term hashing to the bucket.
	df   []int32
	idf  []float32
	docs int
	// incremental-fit state (BeginFit/FitChunk/FinishFit). lastDoc[b]
	// is the 1-based number of the last fed document that hit bucket b,
	// so a bucket counts once per document without a per-document set.
	fitting bool
	pending int
	lastDoc []int
}

// NewFeaturizer creates an unfitted featurizer with the given vector width.
// A non-positive dim selects DefaultFeatureDim.
func NewFeaturizer(dim int) *Featurizer {
	if dim <= 0 {
		dim = DefaultFeatureDim
	}
	return &Featurizer{Dim: dim, df: make([]int32, dim)}
}

// FNV-1a 32-bit constants (hash/fnv's, inlined so hashing a term costs
// zero allocations — the hash.Hash32 interface value and its internal
// state otherwise escape on every call, and hashTerm runs once per token
// per document across Fit, Transform, and DocFreq).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashTerm maps a term to a (bucket, sign) pair with FNV-1a. The sign bit
// implements the standard hashing-trick collision mitigation.
func (f *Featurizer) hashTerm(term string) (int32, float32) {
	sum := uint32(fnvOffset32)
	for i := 0; i < len(term); i++ {
		sum ^= uint32(term[i])
		sum *= fnvPrime32
	}
	bucket := int32(sum % uint32(f.Dim))
	sign := float32(1)
	if sum&0x80000000 != 0 {
		sign = -1
	}
	return bucket, sign
}

// Fit accumulates document frequencies over the corpus and freezes IDF
// weights. Fit may be called exactly once; calling it again returns an
// error to prevent silently mixing statistics from different corpora.
func (f *Featurizer) Fit(corpus [][]string) error {
	if f.docs > 0 {
		return fmt.Errorf("featurizer: Fit called twice")
	}
	if len(corpus) == 0 {
		return fmt.Errorf("featurizer: empty corpus")
	}
	if err := f.BeginFit(); err != nil {
		return err
	}
	f.FitChunk(corpus)
	return f.FinishFit()
}

// BeginFit starts an incremental fit for streaming corpora that never
// materialize fully in memory: feed chunks through FitChunk and freeze
// with FinishFit. Document-frequency accumulation commutes, so any
// chunking of the same corpus yields exactly the statistics Fit computes
// in one shot.
func (f *Featurizer) BeginFit() error {
	if f.docs > 0 {
		return fmt.Errorf("featurizer: Fit called twice")
	}
	if f.fitting {
		return fmt.Errorf("featurizer: BeginFit called twice")
	}
	f.fitting = true
	f.lastDoc = make([]int, f.Dim)
	return nil
}

// FitChunk accumulates document frequencies over one chunk. It panics if
// called outside a BeginFit/FinishFit window (a programming error, like
// Transform before Fit).
func (f *Featurizer) FitChunk(corpus [][]string) {
	if !f.fitting {
		panic("featurizer: FitChunk outside BeginFit/FinishFit")
	}
	for _, tokens := range corpus {
		f.pending++
		for _, t := range tokens {
			if b, _ := f.hashTerm(t); f.lastDoc[b] != f.pending {
				f.lastDoc[b] = f.pending
				f.df[b]++
			}
		}
	}
}

// FitTransform fits the featurizer on corpus and returns the corpus's
// vectors: exactly Fit(corpus) followed by TransformAll(corpus), but each
// document is hashed once instead of twice. The pass keeps
// every document's signed sub-linear TF vector while counting document
// frequencies; once the IDF weights are frozen it scales each vector by
// them in place and normalizes, the same float32 product and the same
// normalization Transform applies. Documents are sharded across Workers;
// integer DF partials sum exactly, so every worker count gives identical
// statistics and vectors.
func (f *Featurizer) FitTransform(corpus [][]string) ([]*SparseVector, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("featurizer: empty corpus")
	}
	if err := f.BeginFit(); err != nil {
		return nil, err
	}
	out := make([]*SparseVector, len(corpus))
	var mu sync.Mutex
	par.Chunks(f.Workers, len(corpus), func(lo, hi int) {
		df := make([]int32, f.Dim)
		var keys []int64
		for i := lo; i < hi; i++ {
			keys = f.sortedKeys(corpus[i], keys[:0])
			countDF(df, keys)
			out[i] = tfVector(keys)
		}
		mu.Lock()
		for b, n := range df {
			f.df[b] += n
		}
		mu.Unlock()
	})
	f.pending = len(corpus)
	if err := f.FinishFit(); err != nil {
		return nil, err
	}
	par.Chunks(f.Workers, len(out), func(lo, hi int) {
		for _, v := range out[lo:hi] {
			f.scale(v)
		}
	})
	return out, nil
}

// sortedKeys appends one packed key per token to keys, bucket<<1 | 1 for
// a negative sign, and sorts them. Sorting groups each bucket's
// occurrences into one run, in the ascending bucket order SparseVector
// stores. The bucket is an int32, so the shifted key cannot overflow an
// int64 at any Dim.
func (f *Featurizer) sortedKeys(tokens []string, keys []int64) []int64 {
	for _, t := range tokens {
		b, sign := f.hashTerm(t)
		k := int64(b) << 1
		if sign < 0 {
			k |= 1
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// countDF adds one to df for every distinct bucket among the sorted keys,
// including buckets whose signed occurrences cancel out.
func countDF(df []int32, keys []int64) {
	for i, k := range keys {
		if i == 0 || k>>1 != keys[i-1]>>1 {
			df[k>>1]++
		}
	}
}

// FinishFit freezes the IDF weights accumulated since BeginFit. It
// errors when no documents were fed, mirroring Fit's empty-corpus check.
func (f *Featurizer) FinishFit() error {
	if !f.fitting {
		return fmt.Errorf("featurizer: FinishFit without BeginFit")
	}
	if f.pending == 0 {
		return fmt.Errorf("featurizer: empty corpus")
	}
	f.docs = f.pending
	f.fitting = false
	f.pending = 0
	f.lastDoc = nil
	f.idf = make([]float32, f.Dim)
	for b := range f.idf {
		// Smoothed IDF; buckets never seen get the maximum weight.
		f.idf[b] = float32(math.Log(float64(1+f.docs)/float64(1+f.df[b])) + 1)
	}
	return nil
}

// Fitted reports whether Fit has completed.
func (f *Featurizer) Fitted() bool { return f.docs > 0 }

// Transform converts one token sequence into an L2-normalized hashed
// TF-IDF vector. Transform panics if the featurizer is unfitted, because
// that is always a programming error rather than a data condition.
func (f *Featurizer) Transform(tokens []string) *SparseVector {
	if !f.Fitted() {
		panic("featurizer: Transform before Fit")
	}
	v := tfVector(f.sortedKeys(tokens, make([]int64, 0, len(tokens))))
	f.scale(v)
	return v
}

// tfVector merges sorted keys into the document's signed sub-linear TF
// vector, before IDF weighting: one entry per bucket whose signed count
// does not cancel out.
func tfVector(keys []int64) *SparseVector {
	buckets := 0
	for i, k := range keys {
		if i == 0 || k>>1 != keys[i-1]>>1 {
			buckets++
		}
	}
	v := &SparseVector{Idx: make([]int32, 0, buckets), Val: make([]float32, 0, buckets)}
	for i := 0; i < len(keys); {
		b := int32(keys[i] >> 1)
		tf := 0
		for ; i < len(keys) && int32(keys[i]>>1) == b; i++ {
			tf += 1 - 2*int(keys[i]&1)
		}
		if tf == 0 {
			continue // signed collisions cancelled out
		}
		// Sub-linear TF damping keeps long reviews (IMDB) comparable to
		// short comments (Youtube).
		mag := float32(1 + math.Log(math.Abs(float64(tf))))
		if tf < 0 {
			mag = -mag
		}
		v.Idx = append(v.Idx, b)
		v.Val = append(v.Val, mag)
	}
	return v
}

// scale weights a TF vector by the frozen IDF in place and L2-normalizes
// it.
func (f *Featurizer) scale(v *SparseVector) {
	for i, b := range v.Idx {
		v.Val[i] *= f.idf[b]
	}
	v.Normalize()
}

// TransformAll maps Transform over a corpus, sharding documents across
// the configured Workers (identical output at any worker count).
func (f *Featurizer) TransformAll(corpus [][]string) []*SparseVector {
	out := make([]*SparseVector, len(corpus))
	par.Chunks(f.Workers, len(corpus), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Transform(corpus[i])
		}
	})
	return out
}

// DocFreq returns the fraction of fitted documents whose hash signature
// includes the given term's bucket. It upper-bounds the term's true
// document frequency (bucket collisions only inflate it) and is used by
// the SEU sampler to prune ultra-rare candidate keywords cheaply.
func (f *Featurizer) DocFreq(term string) float64 {
	if !f.Fitted() {
		return 0
	}
	b, _ := f.hashTerm(term)
	return float64(f.df[b]) / float64(f.docs)
}
