package bundle_test

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/textproc"
)

// trainSmall runs a scaled-down pipeline and returns the dataset, config
// and result. Shared by the differential tests here and reused (via a
// saved bundle file) by the serve tests.
func trainSmall(t *testing.T) (*dataset.Dataset, core.Config, *core.Result) {
	t.Helper()
	d, err := dataset.Load("youtube", 11, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Iterations = 15
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	res, err := core.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts == nil || res.Artifacts.EndModel == nil || res.Artifacts.Featurizer == nil {
		t.Fatal("run produced no trained artifacts")
	}
	return d, cfg, res
}

func saveLoad(t *testing.T, b *bundle.Bundle) *bundle.Bundle {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := bundle.Save(path, b); err != nil {
		t.Fatal(err)
	}
	loaded, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSaveFingerprint: the fingerprint SaveFingerprint takes from the
// bytes it wrote is Fingerprint's, of the saved bundle and of the bundle
// loaded back from the file, and saving that loaded bundle again writes
// the same bytes.
func TestSaveFingerprint(t *testing.T) {
	d, cfg, res := trainSmall(t)
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	b.Provenance.CreatedUnix = 1_754_000_000
	b.Provenance.Parent = "<parent & child>" // HTML-escaped by json
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	saved, err := bundle.SaveFingerprint(path, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bundle.Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if saved != want {
		t.Errorf("SaveFingerprint = %s, Fingerprint = %s", saved, want)
	}
	loaded, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bundle.Fingerprint(loaded); err != nil || got != saved {
		t.Errorf("Fingerprint of the loaded bundle = %s, %v; saved %s", got, err, saved)
	}
	again := filepath.Join(dir, "again.json")
	if got, err := bundle.SaveFingerprint(again, loaded); err != nil || got != saved {
		t.Errorf("SaveFingerprint of the loaded bundle = %s, %v; saved %s", got, err, saved)
	}
	first, _ := os.ReadFile(path)
	second, _ := os.ReadFile(again)
	if string(first) != string(second) {
		t.Error("saving the loaded bundle wrote different bytes")
	}
}

// TestBundleDifferential is the bit-identity contract of the format: a
// saved-then-loaded bundle predicts exactly — bit for bit — what the
// in-memory model predicts, on the full validation split, at every
// parallelism level.
func TestBundleDifferential(t *testing.T) {
	d, cfg, res := trainSmall(t)
	orig, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, orig)

	corpus := dataset.FeatureCorpus(d.Valid)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		orig.Featurizer.Workers = workers
		loaded.Featurizer.Workers = workers
		orig.EndModel.SetParallelism(workers)
		loaded.EndModel.SetParallelism(workers)

		wantX := orig.Featurizer.TransformAll(corpus)
		gotX := loaded.Featurizer.TransformAll(corpus)
		for i := range wantX {
			assertVectorBits(t, wantX[i], gotX[i], i)
		}

		wantP := orig.EndModel.PredictProbaAll(wantX)
		gotP := loaded.EndModel.PredictProbaAll(gotX)
		for i := range wantP {
			for c := range wantP[i] {
				if math.Float64bits(wantP[i][c]) != math.Float64bits(gotP[i][c]) {
					t.Fatalf("workers=%d example %d class %d: proba %v != %v",
						workers, i, c, wantP[i][c], gotP[i][c])
				}
			}
		}

		wantY := orig.EndModel.Predict(wantX)
		gotY := loaded.EndModel.Predict(gotX)
		for i := range wantY {
			if wantY[i] != gotY[i] {
				t.Fatalf("workers=%d example %d: label %d != %d", workers, i, wantY[i], gotY[i])
			}
		}
	}
}

func assertVectorBits(t *testing.T, want, got *textproc.SparseVector, i int) {
	t.Helper()
	if len(want.Idx) != len(got.Idx) {
		t.Fatalf("example %d: %d features != %d", i, len(want.Idx), len(got.Idx))
	}
	for j := range want.Idx {
		if want.Idx[j] != got.Idx[j] {
			t.Fatalf("example %d slot %d: index %d != %d", i, j, want.Idx[j], got.Idx[j])
		}
		if math.Float32bits(want.Val[j]) != math.Float32bits(got.Val[j]) {
			t.Fatalf("example %d slot %d: value %v != %v", i, j, want.Val[j], got.Val[j])
		}
	}
}

// TestBundleLabelModelRoundTrip checks the MeTaL component survives the
// trip with bit-identical posteriors via the single-example Predictor.
func TestBundleLabelModelRoundTrip(t *testing.T) {
	d, cfg, res := trainSmall(t)
	orig, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if orig.LabelModel == nil {
		t.Fatal("metal run should carry a label model")
	}
	loaded := saveLoad(t, orig)
	if loaded.LabelModel == nil {
		t.Fatal("label model lost in round trip")
	}
	wantPred := orig.LabelModel.NewPredictor()
	gotPred := loaded.LabelModel.NewPredictor()
	checked := 0
	for _, e := range d.Valid {
		js, votes := applyAll(orig, e)
		want := wantPred.Posterior(js, votes)
		got := gotPred.Posterior(js, votes)
		if (want == nil) != (got == nil) {
			t.Fatalf("example %d: coverage disagreement", e.ID)
		}
		if want == nil {
			continue
		}
		checked++
		for c := range want {
			if math.Float64bits(want[c]) != math.Float64bits(got[c]) {
				t.Fatalf("example %d class %d: posterior %v != %v", e.ID, c, want[c], got[c])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no valid example was covered by any LF")
	}
}

func applyAll(b *bundle.Bundle, e *dataset.Example) (js, votes []int) {
	for j, f := range b.LFs {
		if v := f.Apply(e); v != -1 {
			js = append(js, j)
			votes = append(votes, v)
		}
	}
	return
}

func TestBundleProvenance(t *testing.T) {
	d, cfg, res := trainSmall(t)
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Provenance
	if p.ConfigHash == "" || len(p.ConfigHash) != 16 {
		t.Errorf("config hash %q", p.ConfigHash)
	}
	if p.NumLFs != res.NumLFs || p.EndMetric != res.EndMetric || p.CostUSD != res.CostUSD {
		t.Errorf("provenance mismatch: %+v vs %v", p, res)
	}
	if b.Dataset.Name != "youtube" || len(b.Dataset.ClassNames) != 2 {
		t.Errorf("dataset info: %+v", b.Dataset)
	}
	loaded := saveLoad(t, b)
	if loaded.Provenance.CreatedUnix == 0 {
		t.Error("save did not stamp creation time")
	}
	if loaded.Provenance.ConfigHash != p.ConfigHash {
		t.Error("config hash changed in round trip")
	}

	other := cfg
	other.Seed++
	if bundle.ConfigHash(other) == bundle.ConfigHash(cfg) {
		t.Error("config hash insensitive to seed")
	}
}

func TestBundleRejectsCorruptInput(t *testing.T) {
	d, cfg, res := trainSmall(t)
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := bundle.Save(path, b); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"wrong format":   `"format": "not-a-bundle"`,
		"future version": `"version": 999`,
	}
	for name, repl := range cases {
		t.Run(name, func(t *testing.T) {
			var old string
			switch name {
			case "wrong format":
				old = `"format": "` + bundle.Format + `"`
			case "future version":
				old = `"version": 1`
			}
			bad := strings.Replace(string(good), old, repl, 1)
			if bad == string(good) {
				t.Fatal("replacement did not apply")
			}
			badPath := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := bundle.Load(badPath); err == nil {
				t.Error("corrupt bundle accepted")
			}
		})
	}

	t.Run("truncated", func(t *testing.T) {
		badPath := filepath.Join(t.TempDir(), "trunc.json")
		if err := os.WriteFile(badPath, good[:len(good)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bundle.Load(badPath); err == nil {
			t.Error("truncated bundle accepted")
		}
	})

	t.Run("missing end model", func(t *testing.T) {
		res2 := *res
		art := *res.Artifacts
		art.EndModel = nil
		res2.Artifacts = &art
		if _, err := bundle.New(d, cfg, &res2); err == nil {
			t.Error("bundle built without end model")
		}
	})
}

func TestBundleValidateShapeMismatch(t *testing.T) {
	d, cfg, res := trainSmall(t)
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	bad := *b
	m := *b.EndModel
	m.Dim = b.Featurizer.Dim + 1
	m.W = make([]float64, m.K*m.Dim)
	bad.EndModel = &m
	if err := bad.Validate(); err == nil {
		t.Error("dimension mismatch accepted")
	}

	bad2 := *b
	m2 := endmodel.LogisticRegression{Dim: b.Featurizer.Dim, K: 2, W: make([]float64, 2*b.Featurizer.Dim-1), B: []float64{0, 0}}
	bad2.EndModel = &m2
	if err := bad2.Validate(); err == nil {
		t.Error("short weight matrix accepted")
	}
}

// TestAgreement covers the replay shared by the registry's shadow gate
// and the growth loop's post-promote verification: a bundle agrees with
// itself, an empty corpus agrees trivially, and agreement compares class
// names, so renaming every class drops it to zero.
func TestAgreement(t *testing.T) {
	d, cfg, res := trainSmall(t)
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	texts := dataset.FeatureCorpus(d.Valid)
	if got := bundle.Agreement(b, saveLoad(t, b), texts); got != 1 {
		t.Errorf("identical bundle: agreement = %v, want 1", got)
	}
	if got := bundle.Agreement(b, b, nil); got != 1 {
		t.Errorf("empty corpus: agreement = %v, want 1", got)
	}
	renamed := *b
	renamed.Dataset.ClassNames = make([]string, len(b.Dataset.ClassNames))
	for i, name := range b.Dataset.ClassNames {
		renamed.Dataset.ClassNames[i] = "renamed-" + name
	}
	if err := renamed.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := bundle.Agreement(b, &renamed, texts); got != 0 {
		t.Errorf("renamed classes: agreement = %v, want 0", got)
	}
}
