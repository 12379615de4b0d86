package dataset

import (
	"math"
	"reflect"
	"testing"

	"datasculpt/internal/textproc"
)

func TestNamesOrder(t *testing.T) {
	want := []string{"youtube", "sms", "imdb", "yelp", "agnews", "spouse", "trec"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	// the paper's canonical six come first, in table order
	if got := PaperNames(); !reflect.DeepEqual(got, want[:6]) {
		t.Errorf("PaperNames() = %v, want %v", got, want[:6])
	}
}

func TestTRECBonusDataset(t *testing.T) {
	d, err := Load("trec", 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClasses() != 6 {
		t.Errorf("trec classes = %d, want 6", d.NumClasses())
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nonexistent", 1, 1); err == nil {
		t.Fatal("Load(nonexistent) succeeded")
	}
}

func TestLoadAllSmallScale(t *testing.T) {
	for _, name := range Names() {
		d, err := Load(name, 7, 0.02)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d.Signal == nil || d.Signal.Size() == 0 {
			t.Errorf("%s: empty signal table", name)
		}
		if d.TaskDescription == "" || d.InstanceNoun == "" {
			t.Errorf("%s: missing prompt metadata", name)
		}
	}
}

func TestTable1SplitSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in -short mode")
	}
	want := map[string][3]int{
		"youtube": {1586, 120, 250},
		"sms":     {4571, 500, 500},
		"imdb":    {20000, 2500, 2500},
		"yelp":    {30400, 3800, 3800},
		"agnews":  {96000, 12000, 12000},
		"spouse":  {22254, 2811, 2701},
	}
	classes := map[string]int{
		"youtube": 2, "sms": 2, "imdb": 2, "yelp": 2, "agnews": 4, "spouse": 2,
	}
	for name, sizes := range want {
		d, err := Load(name, 1, 1)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		got := [3]int{len(d.Train), len(d.Valid), len(d.Test)}
		if got != sizes {
			t.Errorf("%s splits = %v, want %v", name, got, sizes)
		}
		if d.NumClasses() != classes[name] {
			t.Errorf("%s classes = %d, want %d", name, d.NumClasses(), classes[name])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Load("youtube", 42, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("youtube", 42, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Train) != len(b.Train) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Train), len(b.Train))
	}
	for i := range a.Train {
		if a.Train[i].Text != b.Train[i].Text || a.Train[i].Label != b.Train[i].Label {
			t.Fatalf("train[%d] differs across identical seeds", i)
		}
	}
	c, err := Load("youtube", 43, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Train {
		if a.Train[i].Text == c.Train[i].Text {
			same++
		}
	}
	if same == len(a.Train) {
		t.Error("different seeds produced identical corpora")
	}
}

// TestGenerateScaleAbove1: scale > 1 grows every split proportionally
// from the same spec.
func TestGenerateScaleAbove1(t *testing.T) {
	small, err := Load("youtube", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Load("youtube", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(big.Train), 3*len(small.Train); got != want {
		t.Errorf("scale-3 train = %d, want %d", got, want)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("youtube", 1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}

func TestTokensMatchTokenizer(t *testing.T) {
	for _, name := range []string{"youtube", "spouse"} {
		d, err := Load(name, 3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range d.Train[:20] {
			if got := textproc.Tokenize(e.Text); !reflect.DeepEqual(got, e.Tokens) {
				t.Fatalf("%s: cached tokens diverge from Tokenize for %q", name, e.Text)
			}
		}
	}
}

func TestClassPriorsApprox(t *testing.T) {
	d, err := Load("sms", 11, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.NumClasses())
	for _, e := range d.Test {
		counts[e.Label]++
	}
	spamFrac := float64(counts[1]) / float64(len(d.Test))
	if spamFrac < 0.07 || spamFrac > 0.22 {
		t.Errorf("sms spam fraction = %v, want ~0.134", spamFrac)
	}
}

func TestSpouseProperties(t *testing.T) {
	d, err := Load("spouse", 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if d.TrainLabeled {
		t.Error("spouse train should be unlabeled")
	}
	if d.DefaultClass != 0 {
		t.Errorf("spouse default class = %d, want 0", d.DefaultClass)
	}
	for _, e := range d.Train {
		if e.Label != NoLabel {
			t.Fatal("spouse train example has a label")
		}
	}
	for _, e := range d.Valid {
		if e.Entity1 == "" || e.Entity2 == "" {
			t.Fatal("spouse example missing entities")
		}
		if e.E1Pos < 0 || e.E2Pos <= e.E1Pos || e.E2Pos >= len(e.Tokens) {
			t.Fatalf("bad entity positions %d,%d in %d tokens", e.E1Pos, e.E2Pos, len(e.Tokens))
		}
		// the tokens at the recorded positions must spell the entities
		e1 := e.Tokens[e.E1Pos] + " " + e.Tokens[e.E1Pos+1]
		e2 := e.Tokens[e.E2Pos] + " " + e.Tokens[e.E2Pos+1]
		if e1 != e.Entity1 || e2 != e.Entity2 {
			t.Fatalf("entity positions point at %q/%q, want %q/%q", e1, e2, e.Entity1, e.Entity2)
		}
	}
}

func TestSignalTableValidation(t *testing.T) {
	_, err := NewSignalTable(2, []KeywordSignal{
		{Phrase: "a", Class: 0, Strength: 0.9, Weight: 1},
		{Phrase: "a", Class: 1, Strength: 0.9, Weight: 1},
	})
	if err == nil {
		t.Error("duplicate phrase accepted")
	}
	_, err = NewSignalTable(2, []KeywordSignal{
		{Phrase: "a", Class: 5, Strength: 0.9, Weight: 1},
	})
	if err == nil {
		t.Error("out-of-range class accepted")
	}
	_, err = NewSignalTable(2, []KeywordSignal{
		{Phrase: "a", Class: 0, Strength: 0.9, Weight: 1},
	})
	if err == nil {
		t.Error("class without signals accepted")
	}
	_, err = NewSignalTable(1, []KeywordSignal{
		{Phrase: "a", Class: 0, Strength: 1.5, Weight: 1},
	})
	if err == nil {
		t.Error("strength > 1 accepted")
	}
}

func TestSignalTableTopByWeight(t *testing.T) {
	tbl, err := NewSignalTable(2, []KeywordSignal{
		{Phrase: "rare", Class: 0, Strength: 0.9, Weight: 0.5},
		{Phrase: "common", Class: 0, Strength: 0.9, Weight: 3},
		{Phrase: "mid", Class: 0, Strength: 0.9, Weight: 1},
		{Phrase: "other", Class: 1, Strength: 0.9, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := tbl.TopByWeight(0, 2)
	if len(top) != 2 || top[0].Phrase != "common" || top[1].Phrase != "mid" {
		t.Errorf("TopByWeight = %v", top)
	}
	if got := tbl.TopByWeight(0, 99); len(got) != 3 {
		t.Errorf("TopByWeight over-request = %d items", len(got))
	}
	if got := tbl.TopByWeight(9, 1); got != nil {
		t.Errorf("TopByWeight bad class = %v", got)
	}
}

func TestSpecValidation(t *testing.T) {
	s := YoutubeSpec()
	s.Priors = []float64{0.6, 0.6}
	if _, err := s.Generate(1, 0.1); err == nil {
		t.Error("priors not summing to 1 accepted")
	}
	s2 := YoutubeSpec()
	if _, err := s2.Generate(1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	s3 := YoutubeSpec()
	s3.CrossNoise = 1.0
	if _, err := s3.Generate(1, 0.1); err == nil {
		t.Error("cross noise 1.0 accepted")
	}
}

// TestKeywordCalibration verifies the central property the substitution
// argument rests on: generated keyword occurrences carry the designed
// class signal. Strong keywords must have high empirical precision, and
// per-keyword coverage must sit in the low single digits of percent
// (the paper's LF Cov band for DataSculpt LFs).
func TestKeywordCalibration(t *testing.T) {
	d, err := Load("youtube", 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var precs []float64
	var covs []float64
	for c := 0; c < d.NumClasses(); c++ {
		for _, sig := range d.Signal.Class(c) {
			active, correct := 0, 0
			for _, e := range d.Train {
				if textproc.ContainsPhrase(e.Tokens, sig.Phrase) {
					active++
					if e.Label == c {
						correct++
					}
				}
			}
			if active < 5 {
				continue
			}
			precs = append(precs, float64(correct)/float64(active))
			covs = append(covs, float64(active)/float64(len(d.Train)))
		}
	}
	if len(precs) < 20 {
		t.Fatalf("only %d keywords active enough to measure", len(precs))
	}
	meanPrec := mean(precs)
	meanCov := mean(covs)
	if meanPrec < 0.60 || meanPrec > 0.95 {
		t.Errorf("mean keyword precision = %.3f, want in [0.60,0.95]", meanPrec)
	}
	if meanCov < 0.005 || meanCov > 0.08 {
		t.Errorf("mean keyword coverage = %.4f, want in [0.005,0.08]", meanCov)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return s / float64(len(xs))
}

func TestHelpersLabelsTexts(t *testing.T) {
	d, err := Load("youtube", 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ls := Labels(d.Valid)
	ts := Texts(d.Valid)
	tc := TokenCorpus(d.Valid)
	if len(ls) != len(d.Valid) || len(ts) != len(d.Valid) || len(tc) != len(d.Valid) {
		t.Fatal("helper lengths mismatch")
	}
	for i, e := range d.Valid {
		if ls[i] != e.Label || ts[i] != e.Text || len(tc[i]) != len(e.Tokens) {
			t.Fatalf("helper content mismatch at %d", i)
		}
	}
}

func TestMetricName(t *testing.T) {
	d := &Dataset{Imbalanced: true}
	if d.MetricName() != "F1" {
		t.Error("imbalanced metric should be F1")
	}
	d.Imbalanced = false
	if d.MetricName() != "accuracy" {
		t.Error("balanced metric should be accuracy")
	}
}
