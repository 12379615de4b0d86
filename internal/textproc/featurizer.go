package textproc

import (
	"fmt"
	"math"
	"math/bits"
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
// per document across Fit and Transform).
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
		s := getScratch(f.Dim)
		defer scratchPool.Put(s)
		for i := lo; i < hi; i++ {
			out[i] = s.drain(f.Dim, s.add(f, corpus[i]), df, nil)
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
			for i, b := range v.Idx {
				v.Val[i] *= f.idf[b]
			}
			v.Normalize()
		}
	})
	return out, nil
}

// scratch is one goroutine's per-document accumulator: the signed token
// count of every bucket and a bitmap of the buckets the document
// touched. Between documents both are all zero; drain restores that.
type scratch struct {
	count   []int32
	touched []uint64
}

// scratchPool holds scratches for every Featurizer. It cannot be a
// Featurizer field: servers copy featurizers by value.
var scratchPool sync.Pool

// getScratch returns a zeroed scratch covering at least dim buckets.
func getScratch(dim int) *scratch {
	if s, _ := scratchPool.Get().(*scratch); s != nil && len(s.count) >= dim {
		return s
	}
	return &scratch{count: make([]int32, dim), touched: make([]uint64, (dim+63)/64)}
}

// add counts one document's tokens into s and returns how many distinct
// buckets they hit.
func (s *scratch) add(f *Featurizer, tokens []string) int {
	buckets := 0
	for _, t := range tokens {
		b, sign := f.hashTerm(t)
		if w, bit := b>>6, uint64(1)<<(b&63); s.touched[w]&bit == 0 {
			s.touched[w] |= bit
			buckets++
		}
		if sign < 0 {
			s.count[b]--
		} else {
			s.count[b]++
		}
	}
	return buckets
}

// drain turns the counts in s into the document's vector and zeroes s.
// Walking the bitmap visits the touched buckets in ascending order, the
// order SparseVector stores. Each bucket whose signed count does not
// cancel out gets its signed sub-linear TF, times idf[b] when idf is not
// nil. When df is not nil, every touched bucket, cancelled or not, adds
// one to it. buckets is add's count; it sizes the vector exactly.
func (s *scratch) drain(dim, buckets int, df []int32, idf []float32) *SparseVector {
	v := &SparseVector{Idx: make([]int32, 0, buckets), Val: make([]float32, 0, buckets)}
	touched := s.touched[:(dim+63)/64]
	for w, word := range touched {
		if word == 0 {
			continue
		}
		touched[w] = 0
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			tf := s.count[b]
			s.count[b] = 0
			if df != nil {
				df[b]++
			}
			if tf == 0 {
				continue // signed collisions cancelled out
			}
			mag := tfMagnitude(tf)
			if idf != nil {
				mag *= idf[b]
			}
			v.Idx = append(v.Idx, int32(b))
			v.Val = append(v.Val, mag)
		}
	}
	return v
}

// tfTable[n] is the sub-linear TF magnitude of a count of n.
var tfTable = func() (t [64]float32) {
	for n := 1; n < len(t); n++ {
		t[n] = float32(1 + math.Log(float64(n)))
	}
	return t
}()

// tfMagnitude is the signed sub-linear TF of a non-zero signed count:
// (1 + ln|tf|) with tf's sign. Sub-linear TF damping keeps long reviews
// (IMDB) comparable to short comments (Youtube). Small counts read the
// table, which holds the same float32 values the expression yields.
func tfMagnitude(tf int32) float32 {
	n := tf
	if n < 0 {
		n = -n
	}
	var mag float32
	if int(n) < len(tfTable) {
		mag = tfTable[n]
	} else {
		mag = float32(1 + math.Log(float64(n)))
	}
	if tf < 0 {
		mag = -mag
	}
	return mag
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
	s := getScratch(f.Dim)
	v := f.transform(s, tokens)
	scratchPool.Put(s)
	return v
}

// transform is Transform with the caller's scratch.
func (f *Featurizer) transform(s *scratch, tokens []string) *SparseVector {
	if !f.Fitted() {
		panic("featurizer: Transform before Fit")
	}
	v := s.drain(f.Dim, s.add(f, tokens), nil, f.idf)
	v.Normalize()
	return v
}

// TransformAll maps Transform over a corpus, sharding documents across
// the configured Workers (identical output at any worker count).
func (f *Featurizer) TransformAll(corpus [][]string) []*SparseVector {
	out := make([]*SparseVector, len(corpus))
	par.Chunks(f.Workers, len(corpus), func(lo, hi int) {
		s := getScratch(f.Dim)
		defer scratchPool.Put(s)
		for i := lo; i < hi; i++ {
			out[i] = f.transform(s, corpus[i])
		}
	})
	return out
}
