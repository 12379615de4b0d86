package textproc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceTransform is Transform as it was written before the packed-key
// kernel: a per-document accumulation map, emptied of cancelled buckets
// and handed to referenceFromMap. Kept verbatim as the oracle the
// bucket-count kernel must match bit for bit.
func referenceTransform(f *Featurizer, tokens []string) *SparseVector {
	acc := make(map[int32]float32, len(tokens))
	for _, t := range tokens {
		b, sign := f.hashTerm(t)
		acc[b] += sign
	}
	for b, tf := range acc {
		if tf == 0 {
			delete(acc, b) // signed collisions cancelled out
			continue
		}
		mag := float32(1 + math.Log(math.Abs(float64(tf))))
		if tf < 0 {
			mag = -mag
		}
		acc[b] = mag * f.idf[b]
	}
	v := referenceFromMap(acc)
	v.Normalize()
	return v
}

// referenceFromMap builds an index-sorted SparseVector from an
// accumulation map.
func referenceFromMap(m map[int32]float32) *SparseVector {
	v := &SparseVector{
		Idx: make([]int32, 0, len(m)),
		Val: make([]float32, 0, len(m)),
	}
	for idx := range m {
		v.Idx = append(v.Idx, idx)
	}
	sort.Slice(v.Idx, func(i, j int) bool { return v.Idx[i] < v.Idx[j] })
	for _, idx := range v.Idx {
		v.Val = append(v.Val, m[idx])
	}
	return v
}

// sameBits reports the first difference between two vectors, comparing
// values by their float32 bit patterns.
func sameBits(got, want *SparseVector) error {
	if len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		return fmt.Errorf("%d/%d entries, want %d/%d", len(got.Idx), len(got.Val), len(want.Idx), len(want.Val))
	}
	for i := range want.Idx {
		if got.Idx[i] != want.Idx[i] || math.Float32bits(got.Val[i]) != math.Float32bits(want.Val[i]) {
			return fmt.Errorf("entry %d is (%d, %v), want (%d, %v)", i, got.Idx[i], got.Val[i], want.Idx[i], want.Val[i])
		}
	}
	return nil
}

// randomDocs draws n token lists of length 0..maxLen over a vocabulary of
// vocabN words.
func randomDocs(rng *rand.Rand, n, maxLen, vocabN int) [][]string {
	docs := make([][]string, n)
	for i := range docs {
		doc := make([]string, rng.Intn(maxLen+1))
		for j := range doc {
			doc[j] = fmt.Sprintf("w%d", rng.Intn(vocabN))
		}
		docs[i] = doc
	}
	return docs
}

func fitted(t testing.TB, dim int, corpus [][]string) *Featurizer {
	t.Helper()
	f := NewFeaturizer(dim)
	if err := f.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTransformMatchesMapReference: the bucket-count kernel reproduces
// the map-based Transform bit for bit. The narrow widths force signed
// collisions, including buckets whose counts cancel to zero; the
// repeated words give counts on both sides of the TF table's end.
func TestTransformMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var repeated [][]string
	for _, n := range []int{63, 64, 65, 300} {
		doc := make([]string, 0, n+7)
		for j := 0; j < n; j++ {
			doc = append(doc, "w1")
		}
		repeated = append(repeated, doc, append(doc, "w2", "w2", "w3", "w4", "w5", "w6", "w7"))
	}
	for _, dim := range []int{1, 2, 7, 8192} {
		docs := append(randomDocs(rng, 400, 120, 60), repeated...)
		f := fitted(t, dim, docs[:200])
		cancelled := 0
		for i, doc := range docs {
			want := referenceTransform(f, doc)
			if err := sameBits(f.Transform(doc), want); err != nil {
				t.Fatalf("dim %d, doc %d: %v", dim, i, err)
			}
			buckets := map[int32]bool{}
			for _, tok := range doc {
				b, _ := f.hashTerm(tok)
				buckets[b] = true
			}
			if len(buckets) > want.NNZ() {
				cancelled++
			}
		}
		if dim <= 2 && cancelled == 0 {
			t.Errorf("dim %d: no document had a bucket cancel to zero", dim)
		}
	}
}

// TestTransformAllocsConstant: Transform allocates the same few objects
// (vector header, index and value slices) whatever the document length;
// its bucket counts live in a pooled scratch. Under the race detector
// the pool drops scratches at random, so only the kernel with a held
// scratch is measured there.
func TestTransformAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := fitted(t, DefaultFeatureDim, randomDocs(rng, 50, 40, 500))
	s := getScratch(f.Dim)
	for _, n := range []int{1, 30, 300, 3000} {
		doc := make([]string, n)
		for j := range doc {
			doc[j] = fmt.Sprintf("w%d", rng.Intn(500))
		}
		if allocs := testing.AllocsPerRun(50, func() { f.transform(s, doc) }); allocs > 3 {
			t.Errorf("transform of %d tokens allocates %v objects, want <= 3", n, allocs)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(50, func() { f.Transform(doc) }); allocs > 3 {
			t.Errorf("Transform of %d tokens allocates %v objects, want <= 3", n, allocs)
		}
	}
}

// TestTransformAllParallelSharedPool: featurizers of a narrow and the
// default width draw scratches from the one pool at the same time, so a
// pooled scratch sized for one width serves the other. Every vector must
// still match the reference bit for bit; run under -race, no two
// goroutines may share a scratch.
func TestTransformAllParallelSharedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	docs := randomDocs(rng, 300, 100, 80)
	var fs []*Featurizer
	var want [][]*SparseVector
	for _, dim := range []int{7, DefaultFeatureDim} {
		f := fitted(t, dim, docs)
		f.Workers = 3
		ref := make([]*SparseVector, len(docs))
		for i, doc := range docs {
			ref[i] = referenceTransform(f, doc)
		}
		fs, want = append(fs, f), append(want, ref)
	}
	const goroutines, rounds = 4, 5
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f, ref := fs[(k+r)%len(fs)], want[(k+r)%len(fs)]
				for i, v := range f.TransformAll(docs) {
					if err := sameBits(v, ref[i]); err != nil {
						errs <- fmt.Errorf("dim %d doc %d: %v", f.Dim, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// candidateDocs covers the shapes bounded enumeration must handle:
// shorter and longer than the limit, reaching it only through bigrams or
// trigrams, and with no candidate at all.
func candidateDocs() [][]string {
	var long []string
	for i := 0; i < 60; i++ {
		long = append(long, fmt.Sprintf("word%d", i), "the")
	}
	docs := [][]string{
		nil,
		Tokenize("free cash"),
		Tokenize("check out the new channel"),
		// Few distinct content words, many stop-word joins: the limit is
		// reached only through bigrams and trigrams.
		Tokenize("cash of prize to win cash in prize of win and cash win prize win"),
		Tokenize("song of the year at number one of the best song by the band of the year"),
		Tokenize("the of and to in a is it"),
		Tokenize("123 456 789 2024 7"),
		Tokenize("123 cash 456 the 789 prize 123 cash"),
		long,
	}
	rng := rand.New(rand.NewSource(8))
	vocab := []string{"the", "of", "to", "and", "42", "7", "cash", "prize", "win", "song", "great", "food"}
	for i := 0; i < 40; i++ {
		doc := make([]string, rng.Intn(30))
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestCandidateKeywordsLimitIsPrefix: a bounded enumeration returns
// exactly the first limit candidates of the unbounded one.
func TestCandidateKeywordsLimitIsPrefix(t *testing.T) {
	reachedBeyondUnigrams := false
	for d, doc := range candidateDocs() {
		full := CandidateKeywords(doc, 0)
		for limit := 1; limit <= 40; limit++ {
			got := CandidateKeywords(doc, limit)
			want := full[:min(limit, len(full))]
			if !slices.Equal(got, want) {
				t.Fatalf("doc %d %q, limit %d: got %q, want %q", d, doc, limit, got, want)
			}
			if len(got) == limit && strings.Contains(got[limit-1], " ") {
				reachedBeyondUnigrams = true
			}
		}
	}
	if !reachedBeyondUnigrams {
		t.Error("no document reached a limit through bigrams or trigrams")
	}
}

// TestCandidateKeywordsBoundedAllocs: stopping at the limit means a long
// document costs no more allocations than a short one, because none of
// the bigram and trigram strings past the limit are built.
func TestCandidateKeywordsBoundedAllocs(t *testing.T) {
	var long []string
	for i := 0; i < 2000; i++ {
		long = append(long, fmt.Sprintf("word%d", i%700))
	}
	short := long[:40]
	bounded := func(doc []string) float64 {
		return testing.AllocsPerRun(20, func() { CandidateKeywords(doc, 25) })
	}
	if l, s := bounded(long), bounded(short); l != s {
		t.Errorf("limit 25 allocates %v objects on %d tokens but %v on %d", l, len(long), s, len(short))
	}
	if full := testing.AllocsPerRun(5, func() { CandidateKeywords(long, 0) }); full < float64(len(long)) {
		t.Errorf("unbounded enumeration allocates only %v objects; the long document no longer exercises n-gram building", full)
	}
}

// referenceDF counts document frequencies as FitChunk did before the
// sorted-key dedupe: a per-document set of the buckets seen.
func referenceDF(dim int, corpus [][]string) []int32 {
	f := NewFeaturizer(dim)
	df := make([]int32, dim)
	seen := make(map[int32]struct{}, 64)
	for _, tokens := range corpus {
		clear(seen)
		for _, t := range tokens {
			b, _ := f.hashTerm(t)
			if _, ok := seen[b]; !ok {
				seen[b] = struct{}{}
				df[b]++
			}
		}
	}
	return df
}

// TestFitTransformMatchesFitThenTransform: the one-pass FitTransform
// freezes the same statistics as Fit (and as a chunked BeginFit/FitChunk
// fit) and returns exactly the vectors TransformAll produces after it,
// at every worker count. Narrow widths force cancelled buckets, which
// still count toward DF.
func TestFitTransformMatchesFitThenTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 2, 7, 8192} {
		docs := randomDocs(rng, 300, 80, 60)
		ref := fitted(t, dim, docs)
		want := ref.TransformAll(docs)
		if !slices.Equal(ref.df, referenceDF(dim, docs)) {
			t.Fatalf("dim %d: Fit's document frequencies differ from the per-document set count", dim)
		}
		chunked := NewFeaturizer(dim)
		if err := chunked.BeginFit(); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(docs); lo += 70 {
			chunked.FitChunk(docs[lo:min(lo+70, len(docs))])
		}
		if err := chunked.FinishFit(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(chunked.df, ref.df) || chunked.docs != ref.docs {
			t.Fatalf("dim %d: chunked fit differs from Fit", dim)
		}
		for _, workers := range []int{1, 2, 5} {
			f := NewFeaturizer(dim)
			f.Workers = workers
			got, err := f.FitTransform(docs)
			if err != nil {
				t.Fatal(err)
			}
			if f.docs != ref.docs || !slices.Equal(f.df, ref.df) || !slices.Equal(f.idf, ref.idf) {
				t.Fatalf("dim %d workers %d: fitted statistics differ from Fit", dim, workers)
			}
			for i := range want {
				if err := sameBits(got[i], want[i]); err != nil {
					t.Fatalf("dim %d workers %d doc %d: %v", dim, workers, i, err)
				}
			}
			if _, err := f.FitTransform(docs); err == nil {
				t.Fatal("second FitTransform accepted")
			}
		}
	}
	if _, err := NewFeaturizer(8).FitTransform(nil); err == nil {
		t.Error("empty corpus accepted")
	}
}
