package textproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseVectorDot(t *testing.T) {
	a := &SparseVector{Idx: []int32{0, 2, 5}, Val: []float32{1, 2, 3}}
	b := &SparseVector{Idx: []int32{2, 5, 7}, Val: []float32{4, 5, 6}}
	if got := a.Dot(b); got != 2*4+3*5 {
		t.Errorf("Dot = %v, want 23", got)
	}
	empty := &SparseVector{}
	if got := a.Dot(empty); got != 0 {
		t.Errorf("Dot with empty = %v", got)
	}
}

func TestSparseVectorCosineSelf(t *testing.T) {
	v := &SparseVector{Idx: []int32{1, 3}, Val: []float32{0.5, -0.25}}
	if got := v.Cosine(v); math.Abs(got-1) > 1e-6 {
		t.Errorf("Cosine(v,v) = %v, want 1", got)
	}
	zero := &SparseVector{}
	if got := v.Cosine(zero); got != 0 {
		t.Errorf("Cosine with zero = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := &SparseVector{Idx: []int32{0, 1}, Val: []float32{3, 4}}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-6 {
		t.Errorf("norm after Normalize = %v", v.Norm())
	}
	zero := &SparseVector{}
	zero.Normalize() // must not panic
}

func TestFeaturizerFitTwice(t *testing.T) {
	f := NewFeaturizer(64)
	corpus := [][]string{{"a", "b"}, {"b", "c"}}
	if err := f.Fit(corpus); err != nil {
		t.Fatalf("first Fit: %v", err)
	}
	if err := f.Fit(corpus); err == nil {
		t.Fatal("second Fit succeeded, want error")
	}
}

func TestFeaturizerEmptyCorpus(t *testing.T) {
	f := NewFeaturizer(64)
	if err := f.Fit(nil); err == nil {
		t.Fatal("Fit(nil) succeeded, want error")
	}
}

func TestFeaturizerTransformBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transform before Fit did not panic")
		}
	}()
	NewFeaturizer(64).Transform([]string{"a"})
}

func TestFeaturizerDeterministic(t *testing.T) {
	corpus := [][]string{
		Tokenize("the movie was great and funny"),
		Tokenize("terrible waste of time"),
		Tokenize("great acting great plot"),
	}
	f1 := NewFeaturizer(256)
	f2 := NewFeaturizer(256)
	if err := f1.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	for _, doc := range corpus {
		a, b := f1.Transform(doc), f2.Transform(doc)
		if a.NNZ() != b.NNZ() {
			t.Fatalf("nondeterministic NNZ: %d vs %d", a.NNZ(), b.NNZ())
		}
		for i := range a.Idx {
			if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
				t.Fatalf("nondeterministic vector at %d", i)
			}
		}
	}
}

func TestFeaturizerSimilarDocsCloser(t *testing.T) {
	corpus := [][]string{
		Tokenize("this movie was wonderful brilliant acting superb plot"),
		Tokenize("wonderful film brilliant cast superb direction"),
		Tokenize("the stock market fell sharply amid recession fears today"),
	}
	f := NewFeaturizer(1024)
	if err := f.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	vs := f.TransformAll(corpus)
	simSame := vs[0].Cosine(vs[1])
	simDiff := vs[0].Cosine(vs[2])
	if simSame <= simDiff {
		t.Errorf("topically similar docs cosine %v <= dissimilar %v", simSame, simDiff)
	}
}

func TestFeaturizerVectorInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	corpus := make([][]string, 50)
	for i := range corpus {
		n := 1 + rng.Intn(20)
		doc := make([]string, n)
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		corpus[i] = doc
	}
	f := NewFeaturizer(128)
	if err := f.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	prop := func(pick uint8, extra uint8) bool {
		doc := corpus[int(pick)%len(corpus)]
		v := f.Transform(doc)
		if err := v.Validate(f.Dim); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		// Unit norm unless all buckets cancelled.
		n := v.Norm()
		return n == 0 || math.Abs(n-1) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	// |cosine| <= 1 for arbitrary sparse vectors (Cauchy-Schwarz), and
	// Dot is symmetric.
	build := func(raw []byte, offset int) *SparseVector {
		acc := map[int32]float32{}
		for i := 0; i+1 < len(raw); i += 2 {
			idx := int32(raw[i]) % 64
			val := float32(int8(raw[i+1])) / 16
			acc[idx+int32(offset)] += val
		}
		for k, v := range acc {
			if v == 0 {
				delete(acc, k)
			}
		}
		return referenceFromMap(acc)
	}
	prop := func(a, b []byte) bool {
		va, vb := build(a, 0), build(b, 0)
		cos := va.Cosine(vb)
		if math.Abs(cos) > 1+1e-9 {
			return false
		}
		return math.Abs(va.Dot(vb)-vb.Dot(va)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparseVectorValidateCatchesCorruption(t *testing.T) {
	good := &SparseVector{Idx: []int32{1, 5}, Val: []float32{1, 2}}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	bad := []*SparseVector{
		{Idx: []int32{5, 1}, Val: []float32{1, 2}},             // unsorted
		{Idx: []int32{1, 1}, Val: []float32{1, 2}},             // duplicate
		{Idx: []int32{1}, Val: []float32{1, 2}},                // ragged
		{Idx: []int32{99}, Val: []float32{1}},                  // out of range
		{Idx: []int32{1}, Val: []float32{float32(math.NaN())}}, // non-finite
	}
	for i, v := range bad {
		if err := v.Validate(8); err == nil {
			t.Errorf("corrupt vector %d accepted", i)
		}
	}
}
