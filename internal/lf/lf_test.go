package lf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"datasculpt/internal/dataset"
	"datasculpt/internal/textproc"
)

func ex(id int, text string) *dataset.Example {
	e := &dataset.Example{ID: id, Text: text, E1Pos: -1, E2Pos: -1}
	e.EnsureTokens()
	return e
}

func exLabeled(id int, text string, label int) *dataset.Example {
	e := ex(id, text)
	e.Label = label
	return e
}

func TestKeywordLF(t *testing.T) {
	f, err := NewKeywordLF("Check OUT", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Keyword != "check out" {
		t.Errorf("normalized keyword = %q", f.Keyword)
	}
	if got := f.Apply(ex(0, "please check out my channel")); got != 1 {
		t.Errorf("Apply on match = %d, want 1", got)
	}
	if got := f.Apply(ex(1, "checking it out later")); got != Abstain {
		t.Errorf("Apply on non-match = %d, want abstain", got)
	}
	if f.TargetClass() != 1 {
		t.Error("TargetClass != 1")
	}
}

func TestNewKeywordLFValidation(t *testing.T) {
	if _, err := NewKeywordLF("", 0); err == nil {
		t.Error("empty keyword accepted")
	}
	if _, err := NewKeywordLF("!!!", 0); err == nil {
		t.Error("punctuation-only keyword accepted")
	}
	if _, err := NewKeywordLF("one two three four", 0); err == nil {
		t.Error("4-gram accepted")
	}
}

func TestEntityKeywordLF(t *testing.T) {
	f, err := NewEntityKeywordLF("married", 1)
	if err != nil {
		t.Fatal(err)
	}
	// keyword between target entities -> active
	e := &dataset.Example{
		Text:    "yesterday john smith married mary jones in town",
		Entity1: "john smith",
		Entity2: "mary jones",
		E1Pos:   1,
		E2Pos:   4,
	}
	e.EnsureTokens()
	if got := f.Apply(e); got != 1 {
		t.Errorf("in-window keyword vote = %d, want 1", got)
	}
	// keyword far outside the entity window -> abstain
	far := &dataset.Example{
		Text: "john smith met mary jones at the office while later that evening " +
			"in a distant city anna brown married peter king",
		Entity1: "john smith",
		Entity2: "mary jones",
		E1Pos:   0,
		E2Pos:   3,
	}
	far.EnsureTokens()
	if got := f.Apply(far); got != Abstain {
		t.Errorf("distractor keyword vote = %d, want abstain", got)
	}
	// text-classification example (no entities) -> abstain
	if got := f.Apply(ex(0, "they married last year")); got != Abstain {
		t.Errorf("no-entity vote = %d, want abstain", got)
	}
}

func TestPredicateLF(t *testing.T) {
	f := &PredicateLF{
		LFName: "long-text",
		Class:  1,
		Fire:   func(e *dataset.Example) bool { return len(e.Tokens) > 5 },
	}
	if got := f.Apply(ex(0, "one two three four five six seven")); got != 1 {
		t.Errorf("predicate fire = %d", got)
	}
	if got := f.Apply(ex(1, "short text")); got != Abstain {
		t.Errorf("predicate no-fire = %d", got)
	}
	if !strings.HasPrefix(f.Name(), "pred:") {
		t.Errorf("name = %q", f.Name())
	}
}

func TestAnnotationLF(t *testing.T) {
	a, b := ex(0, "first"), ex(1, "second")
	f := &AnnotationLF{LFName: "tmpl-0", Votes: map[*dataset.Example]int{a: 1}}
	if got := f.Apply(a); got != 1 {
		t.Errorf("annotated vote = %d", got)
	}
	if got := f.Apply(b); got != Abstain {
		t.Errorf("unannotated vote = %d", got)
	}
	if f.TargetClass() != Abstain {
		t.Error("annotation LF should have no single target class")
	}
}

func TestIndexDocs(t *testing.T) {
	split := []*dataset.Example{
		ex(0, "check out my channel"),
		ex(1, "great song love it"),
		ex(2, "check the description out"),
		ex(3, "check out these covers"),
	}
	ix := NewIndex(split)
	if got := ix.Docs("check out"); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Docs(check out) = %v, want [0 3]", got)
	}
	if got := ix.Docs("check"); len(got) != 3 {
		t.Errorf("Docs(check) = %v, want 3 docs", got)
	}
	if got := ix.Docs("absent phrase"); got != nil {
		t.Errorf("Docs(absent) = %v", got)
	}
	if got := ix.Docs(""); got != nil {
		t.Errorf("Docs(empty) = %v", got)
	}
	if ix.DocFreq("check") != 3 {
		t.Errorf("DocFreq(check) = %d", ix.DocFreq("check"))
	}
}

// TestIndexCountDocsMatchesDocs: the allocation-free accessors must
// agree with Docs on count, membership and order for single- and
// multi-word phrases, including absent and empty ones.
func TestIndexCountDocsMatchesDocs(t *testing.T) {
	split := []*dataset.Example{
		ex(0, "check out my channel"),
		ex(1, "great song love it"),
		ex(2, "check the description out"),
		ex(3, "check out these covers"),
	}
	ix := NewIndex(split)
	for _, phrase := range []string{"check", "check out", "out", "absent phrase", "", "great song love"} {
		want := ix.Docs(phrase)
		if got := ix.CountDocs(phrase); got != len(want) {
			t.Errorf("CountDocs(%q) = %d, want %d", phrase, got, len(want))
		}
		var walked []int32
		ix.ForEachDoc(phrase, func(id int32) { walked = append(walked, id) })
		if len(walked) != len(want) {
			t.Fatalf("ForEachDoc(%q) visited %v, want %v", phrase, walked, want)
		}
		for i := range want {
			if walked[i] != want[i] {
				t.Errorf("ForEachDoc(%q)[%d] = %d, want %d", phrase, i, walked[i], want[i])
			}
		}
	}
}

func TestIndexMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vocab := []string{"spam", "free", "win", "song", "love", "channel", "click", "video"}
	split := make([]*dataset.Example, 80)
	for i := range split {
		n := 1 + rng.Intn(12)
		words := make([]string, n)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		split[i] = ex(i, strings.Join(words, " "))
	}
	ix := NewIndex(split)
	prop := func(a, b uint8) bool {
		phrase := vocab[int(a)%len(vocab)] + " " + vocab[int(b)%len(vocab)]
		fast := ix.Docs(phrase)
		var slow []int32
		for i, e := range split {
			if textproc.ContainsPhrase(e.Tokens, phrase) {
				slow = append(slow, int32(i))
			}
		}
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVoteMatrixStats(t *testing.T) {
	split := []*dataset.Example{
		exLabeled(0, "free money click here", 1),
		exLabeled(1, "love this song", 0),
		exLabeled(2, "free tickets for the show", 0), // "free" misfires here
		exLabeled(3, "plain message without signal", 0),
	}
	ix := NewIndex(split)
	spamLF, _ := NewKeywordLF("free", 1)
	hamLF, _ := NewKeywordLF("love this song", 0)
	vm := BuildVoteMatrix(ix, []LabelFunction{spamLF, hamLF})

	if vm.NumExamples() != 4 || vm.NumLFs() != 2 {
		t.Fatalf("shape = %dx%d", vm.NumExamples(), vm.NumLFs())
	}
	if got := vm.Coverage(0); got != 0.5 {
		t.Errorf("coverage(free) = %v, want 0.5", got)
	}
	if got := vm.Coverage(1); got != 0.25 {
		t.Errorf("coverage(love this song) = %v, want 0.25", got)
	}
	if got := vm.TotalCoverage(); got != 0.75 {
		t.Errorf("total coverage = %v, want 0.75", got)
	}
	gold := dataset.Labels(split)
	acc, active := vm.LFAccuracy(0, gold)
	if active != 2 || acc != 0.5 {
		t.Errorf("LFAccuracy(free) = %v on %d, want 0.5 on 2", acc, active)
	}
	mean, ok := vm.MeanLFAccuracy(gold)
	if !ok || mean != 0.75 {
		t.Errorf("mean LF accuracy = %v (%v), want 0.75", mean, ok)
	}
	mv := vm.MajorityVotes(2)
	if mv[0] != 1 || mv[1] != 0 || mv[2] != 1 || mv[3] != Abstain {
		t.Errorf("majority votes = %v", mv)
	}
}

func TestVoteMatrixRowAndUnlabeled(t *testing.T) {
	split := []*dataset.Example{
		ex(0, "free stuff"), // unlabeled (NoLabel)
	}
	ix := NewIndex(split)
	f, _ := NewKeywordLF("free", 1)
	vm := BuildVoteMatrix(ix, []LabelFunction{f})
	row := vm.Row(0, nil)
	if len(row) != 1 || row[0] != 1 {
		t.Errorf("row = %v", row)
	}
	if _, ok := vm.MeanLFAccuracy([]int{dataset.NoLabel}); ok {
		t.Error("mean accuracy defined on fully unlabeled split")
	}
}

// setOf builds the active set of a dense vote column (Abstain where
// inactive).
func setOf(col []int8) activeSet {
	var s activeSet
	for i, v := range col {
		if v != Abstain {
			s.ids = append(s.ids, int32(i))
			s.votes = append(s.votes, v)
		}
	}
	return s
}

// TestConsensus pins setConsensus, the redundancy filter's agreement
// ratio, on hand-checked cases.
func TestConsensus(t *testing.T) {
	a := setOf([]int8{1, 1, Abstain, Abstain, 0})
	b := setOf([]int8{1, Abstain, Abstain, 1, 0})
	// union: idx 0,1,3,4 (=4); agree: idx 0,4 (=2)
	if got := setConsensus(a, b); got != 0.5 {
		t.Errorf("consensus = %v, want 0.5", got)
	}
	if got := setConsensus(setOf([]int8{Abstain}), setOf([]int8{Abstain})); got != 0 {
		t.Errorf("all-abstain consensus = %v", got)
	}
	// disagreeing votes never count as intersection
	if got := setConsensus(setOf([]int8{1}), setOf([]int8{0})); got != 0 {
		t.Errorf("disagreeing consensus = %v", got)
	}
}

func TestConsensusSymmetricProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		n := len(raw)
		a := make([]int8, n)
		b := make([]int8, n)
		for i, r := range raw {
			a[i] = int8(r%3) - 1 // -1..1
			b[i] = int8((r/3)%3) - 1
		}
		s := setConsensus(setOf(a), setOf(b))
		return s == setConsensus(setOf(b), setOf(a)) && s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// referencePostings builds posting lists as NewIndex did with a
// map[string][]int32 read and written once per token, kept as the
// oracle for the one-lookup build.
func referencePostings(split []*dataset.Example) map[string][]int32 {
	postings := make(map[string][]int32)
	for i, e := range split {
		e.EnsureTokens()
		prev := ""
		for _, tok := range e.Tokens {
			if tok == prev {
				continue
			}
			prev = tok
			list := postings[tok]
			if len(list) > 0 && list[len(list)-1] == int32(i) {
				continue
			}
			postings[tok] = append(list, int32(i))
		}
	}
	return postings
}

// TestIndexPostingsMatchReference: every token's posting list is
// ascending, duplicate-free and identical to the reference build,
// including documents that repeat a token adjacently and apart.
func TestIndexPostingsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vocab := []string{"spam", "free", "win", "song", "love", "channel", "click", "video", "a", "b"}
	split := make([]*dataset.Example, 300)
	for i := range split {
		words := make([]string, rng.Intn(15))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		split[i] = ex(i, strings.Join(words, " "))
	}
	ix := NewIndex(split)
	want := referencePostings(split)
	for tok, list := range want {
		got := ix.Docs(tok)
		if fmt.Sprint(got) != fmt.Sprint(list) {
			t.Fatalf("postings of %q = %v, reference %v", tok, got, list)
		}
		if ix.DocFreq(tok) != len(list) {
			t.Fatalf("DocFreq(%q) = %d, want %d", tok, ix.DocFreq(tok), len(list))
		}
	}
	if got := ix.Docs("absent"); got != nil || ix.DocFreq("absent") != 0 {
		t.Fatalf("absent token has postings %v", got)
	}
}
