package textproc

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
)

func fittedFeaturizer(t *testing.T) (*Featurizer, [][]string) {
	t.Helper()
	corpus := [][]string{
		Tokenize("check out my channel and subscribe"),
		Tokenize("this melody is beautiful, love it"),
		Tokenize("free gift card, click the link"),
		Tokenize("the song reminds me of summer"),
	}
	f := NewFeaturizer(256)
	if err := f.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	return f, corpus
}

func TestFeaturizerRoundTripBitIdentical(t *testing.T) {
	f, corpus := fittedFeaturizer(t)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var g Featurizer
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if !g.Fitted() {
		t.Fatal("round-tripped featurizer is not fitted")
	}
	for i, tokens := range corpus {
		a, b := f.Transform(tokens), g.Transform(tokens)
		if len(a.Idx) != len(b.Idx) {
			t.Fatalf("doc %d: nnz %d vs %d", i, len(a.Idx), len(b.Idx))
		}
		for t2 := range a.Idx {
			if a.Idx[t2] != b.Idx[t2] || math.Float32bits(a.Val[t2]) != math.Float32bits(b.Val[t2]) {
				t.Fatalf("doc %d entry %d: (%d,%x) vs (%d,%x)", i, t2,
					a.Idx[t2], math.Float32bits(a.Val[t2]), b.Idx[t2], math.Float32bits(b.Val[t2]))
			}
		}
	}
	if f.docs != g.docs || !slices.Equal(f.df, g.df) {
		t.Error("document frequencies differ after round trip")
	}
}

func TestFeaturizerSerializeUnfitted(t *testing.T) {
	if _, err := json.Marshal(NewFeaturizer(64)); err == nil {
		t.Fatal("marshaling an unfitted featurizer should fail")
	}
}

func TestFeaturizerUnmarshalRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"dim":0,"docs":1,"df":[]}`,
		`{"dim":2,"docs":0,"df":[0,0]}`,
		`{"dim":2,"docs":1,"df":[0]}`,
		`{"dim":2,"docs":1,"df":[0,5]}`,
		`{"dim":2,"docs":1,"df":[-1,0]}`,
		`not json`,
	}
	for _, c := range cases {
		var g Featurizer
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("Unmarshal(%s) should fail", c)
		}
	}
}
