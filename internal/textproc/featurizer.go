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

// hashTerm maps a term to a (bucket, sign) pair of a dim-wide vector
// with FNV-1a. The sign bit implements the standard hashing-trick
// collision mitigation.
func hashTerm(dim int, term string) (int32, float32) {
	sum := uint32(fnvOffset32)
	for i := 0; i < len(term); i++ {
		sum ^= uint32(term[i])
		sum *= fnvPrime32
	}
	bucket := int32(sum % uint32(dim))
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
	// lastDoc[b] is the 1-based number of the last document that hit
	// bucket b, so a bucket counts once per document without a
	// per-document set.
	lastDoc := make([]int, f.Dim)
	for i, tokens := range corpus {
		for _, t := range tokens {
			if b, _ := hashTerm(f.Dim, t); lastDoc[b] != i+1 {
				lastDoc[b] = i + 1
				f.df[b]++
			}
		}
	}
	f.freeze(len(corpus))
	return nil
}

// FitTransform fits the featurizer on corpus and returns the corpus's
// vectors: exactly Fit(corpus) followed by TransformAll(corpus), but each
// document is hashed once instead of twice. It is FitTF over the
// corpus's one HashTF part, whose TF vectors it then scales in place.
func (f *Featurizer) FitTransform(corpus [][]string) ([]*SparseVector, error) {
	tf := HashTF(f.Dim, f.Workers, corpus)
	if err := f.FitTF(tf); err != nil {
		return nil, err
	}
	f.scale(tf.Vecs, tf.Vecs)
	return tf.Vecs, nil
}

// TF is the hashing half of a fit over one corpus: each document's
// signed sub-linear TF vector, before IDF, and the corpus's document
// frequencies. A TF is read-only once built, so one part can feed any
// number of fits (FitTF) and vector builds (Vectors).
type TF struct {
	// Vecs[i] is document i's TF vector.
	Vecs []*SparseVector
	// DF[b] counts the documents with a token hashing to bucket b.
	DF []int32
}

// HashTF hashes every document of corpus into a dim-wide TF part, each
// token once. Documents are sharded across workers; integer DF partials
// sum exactly, so every worker count gives the identical part.
func HashTF(dim, workers int, corpus [][]string) *TF {
	tf := &TF{Vecs: make([]*SparseVector, len(corpus)), DF: make([]int32, dim)}
	var mu sync.Mutex
	par.Chunks(workers, len(corpus), func(lo, hi int) {
		df := make([]int32, dim)
		s := getScratch(dim)
		defer scratchPool.Put(s)
		for i := lo; i < hi; i++ {
			tf.Vecs[i] = s.drain(dim, s.add(dim, corpus[i]), df, nil)
		}
		mu.Lock()
		for b, n := range df {
			tf.DF[b] += n
		}
		mu.Unlock()
	})
	return tf
}

// FitTF fits the featurizer on the concatenation of the parts' corpora:
// it sums their document frequencies and freezes the IDF weights as
// Fit does. Integer sums make the statistics exactly Fit's over
// the concatenated corpus. The parts are not modified.
func (f *Featurizer) FitTF(parts ...*TF) error {
	if f.docs > 0 {
		return fmt.Errorf("featurizer: Fit called twice")
	}
	docs := 0
	for _, p := range parts {
		if len(p.DF) != f.Dim {
			return fmt.Errorf("featurizer: TF part of width %d, featurizer width %d", len(p.DF), f.Dim)
		}
		docs += len(p.Vecs)
	}
	if docs == 0 {
		return fmt.Errorf("featurizer: empty corpus")
	}
	for _, p := range parts {
		for b, n := range p.DF {
			f.df[b] += n
		}
	}
	f.freeze(docs)
	return nil
}

// Vectors returns the L2-normalized TF-IDF vectors of the parts'
// documents, in order: each TF vector times the fitted IDF weights, the
// same float32 product and normalization Transform applies, so every
// vector is bit-identical to Transform's. The parts are not modified;
// a vector shares its TF vector's indices.
func (f *Featurizer) Vectors(parts ...*TF) []*SparseVector {
	if !f.Fitted() {
		panic("featurizer: Vectors before Fit")
	}
	var tf []*SparseVector
	for _, p := range parts {
		tf = append(tf, p.Vecs...)
	}
	out := make([]*SparseVector, len(tf))
	for i, v := range tf {
		out[i] = &SparseVector{Idx: v.Idx, Val: make([]float32, len(v.Val))}
	}
	f.scale(out, tf)
	return out
}

// scale sets each dst[i]'s values to src[i]'s times the IDF weights of
// its buckets and normalizes it, sharded across Workers. dst may be src.
func (f *Featurizer) scale(dst, src []*SparseVector) {
	par.Chunks(f.Workers, len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d, s := dst[i], src[i]
			for j, b := range s.Idx {
				d.Val[j] = s.Val[j] * f.idf[b]
			}
			d.Normalize()
		}
	})
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
// buckets of a dim-wide vector they hit.
func (s *scratch) add(dim int, tokens []string) int {
	buckets := 0
	for _, t := range tokens {
		b, sign := hashTerm(dim, t)
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

// freeze fixes the fit at docs documents and computes the IDF weights
// from the accumulated document frequencies.
func (f *Featurizer) freeze(docs int) {
	f.docs = docs
	f.idf = make([]float32, f.Dim)
	for b := range f.idf {
		// Smoothed IDF; buckets never seen get the maximum weight.
		f.idf[b] = float32(math.Log(float64(1+f.docs)/float64(1+f.df[b])) + 1)
	}
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
	v := s.drain(f.Dim, s.add(f.Dim, tokens), nil, f.idf)
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
