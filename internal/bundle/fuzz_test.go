package bundle_test

import (
	"encoding/json"
	"strings"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/textproc"
)

// tinyBundle assembles a complete, valid bundle over a 16-bucket
// featurizer in milliseconds: the fuzz seed every mutation starts from.
func tinyBundle(t testing.TB) []byte {
	t.Helper()
	var split []*dataset.Example
	for i, text := range []string{
		"check out my channel free cash",
		"great song love it",
		"free cash prize click here",
		"this song is great",
	} {
		e := &dataset.Example{ID: i, Text: text, Label: i % 2, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		split = append(split, e)
	}
	var lfs []lf.LabelFunction
	for _, kw := range []struct {
		phrase string
		class  int
	}{{"free cash", 1}, {"song", 0}, {"channel", 1}} {
		k, err := lf.NewKeywordLF(kw.phrase, kw.class)
		if err != nil {
			t.Fatal(err)
		}
		lfs = append(lfs, k)
	}
	lm := labelmodel.NewMeTaL()
	if err := lm.Fit(lf.BuildVoteMatrix(lf.NewIndex(split), lfs), 2); err != nil {
		t.Fatal(err)
	}
	feat := textproc.NewFeaturizer(16)
	corpus := dataset.FeatureCorpus(split)
	if err := feat.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	Y := [][]float64{{0, 1}, {1, 0}, {0, 1}, {1, 0}}
	em, err := endmodel.Train(feat.TransformAll(corpus), Y, nil, 2, 16, endmodel.TrainConfig{Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := &bundle.Bundle{
		Provenance: bundle.Provenance{Method: "datasculpt-base", CreatedUnix: 1},
		Dataset:    bundle.DatasetInfo{Name: "youtube", Task: "text", ClassNames: []string{"ham", "spam"}, DefaultClass: 0, MetricName: "accuracy"},
		LFs:        lfs,
		LabelModel: lm,
		Featurizer: feat,
		EndModel:   em,
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

type jsonObject = map[string]any

// unservable are corruptions of tinyBundle, as edits of its decoded JSON,
// that pass every component's own checks but that a daemon cannot serve:
// loading or labeling would crash, or answer in the wrong shape.
var unservable = map[string]func(b jsonObject){
	// A dense 2×10^12 weight matrix: decoding it would exhaust memory.
	"huge end-model dimension": func(b jsonObject) { b["end_model"].(jsonObject)["dim"] = 1e12 },
	// The LF's vote indexes past the label model's class tables.
	"LF class out of range": func(b jsonObject) { b["lfs"].([]any)[1].(jsonObject)["class"] = 7 },
	"negative LF class":     func(b jsonObject) { b["lfs"].([]any)[1].(jsonObject)["class"] = -2 },
	// A consistent three-class label model for a two-class task.
	"label-model class count": func(b jsonObject) {
		lm := b["label_model"].(jsonObject)
		lm["k"] = 3
		lm["prior"] = []any{0.25, 0.25, 0.5}
		theta := lm["theta"].([]any)
		for i, row := range theta {
			theta[i] = append(row.([]any), 0.5)
		}
	},
}

// corrupt applies one unservable edit to the encoded bundle good.
func corrupt(t testing.TB, good []byte, edit func(jsonObject)) []byte {
	t.Helper()
	var b jsonObject
	if err := json.Unmarshal(good, &b); err != nil {
		t.Fatal(err)
	}
	edit(b)
	bad, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestBundleRejectsUnservableInput: each corruption in unservable is
// refused at load time.
func TestBundleRejectsUnservableInput(t *testing.T) {
	good := tinyBundle(t)
	var ok bundle.Bundle
	if err := ok.UnmarshalJSON(corrupt(t, good, func(jsonObject) {})); err != nil {
		t.Fatalf("re-encoded seed bundle rejected: %v", err)
	}
	for name, edit := range unservable {
		var b bundle.Bundle
		if err := b.UnmarshalJSON(corrupt(t, good, edit)); err == nil {
			t.Errorf("%s: bundle accepted", name)
		}
	}
}

// FuzzBundleLoad feeds arbitrary bytes to Bundle.UnmarshalJSON, the
// revalidating decoder behind bundle.Load. Every input must either fail
// to load or yield a bundle that labels a text the way the daemon does
// (featurize, end-model posterior, LF votes and label-model posterior)
// without panicking.
func FuzzBundleLoad(f *testing.F) {
	good := tinyBundle(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"datasculpt-bundle","version":1}`))
	f.Add([]byte(strings.Replace(string(good), `"version":1`, `"version":2`, 1)))
	for _, edit := range unservable {
		f.Add(corrupt(f, good, edit))
	}
	text := &dataset.Example{Text: "check out my free cash channel, great song", E1Pos: -1, E2Pos: -1}
	text.EnsureTokens()
	f.Fuzz(func(t *testing.T, data []byte) {
		var b bundle.Bundle
		if err := b.UnmarshalJSON(data); err != nil {
			return
		}
		x := b.Featurizer.Transform(text.Tokens)
		if err := x.Validate(b.Featurizer.Dim); err != nil {
			t.Fatal(err)
		}
		if p := b.EndModel.PredictProba(x); len(p) != len(b.Dataset.ClassNames) {
			t.Fatalf("%d end-model probabilities for %d classes", len(p), len(b.Dataset.ClassNames))
		}
		js, votes := lf.ApplyAll(b.LFs, text)
		if b.LabelModel != nil && len(js) > 0 {
			b.LabelModel.NewPredictor().Posterior(js, votes)
		}
	})
}
