package prompt

import (
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/textproc"
)

func loadYoutube(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Load("youtube", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRenderBase(t *testing.T) {
	d := loadYoutube(t)
	demos := []Demonstration{
		{Text: "love this song", Keywords: []string{"love this song"}, Label: 0},
		{Text: "subscribe to me", Keywords: []string{"subscribe"}, Label: 1},
	}
	msgs := Render(Base, d, demos, d.Train[0])
	if len(msgs) != 2 {
		t.Fatalf("messages = %d, want 2 (system+user)", len(msgs))
	}
	if msgs[0].Role != llm.System || msgs[1].Role != llm.User {
		t.Error("wrong roles")
	}
	if strings.Contains(msgs[0].Content, "step by step") {
		t.Error("Base template contains CoT instruction")
	}
	user := msgs[1].Content
	if got := strings.Count(user, "Query:"); got != 3 {
		t.Errorf("Query blocks = %d, want 3 (2 demos + 1 query)", got)
	}
	if !strings.Contains(user, "Keywords: love this song") {
		t.Error("demonstration keywords missing")
	}
}

func TestRenderCoT(t *testing.T) {
	d := loadYoutube(t)
	demos := []Demonstration{
		{Text: "nice melody", Keywords: []string{"melody"}, Label: 0, Explanation: "it praises the song."},
	}
	msgs := Render(CoT, d, demos, d.Train[0])
	if !strings.Contains(msgs[0].Content, "step by step") {
		t.Error("CoT template lacks the step-by-step instruction")
	}
	if !strings.Contains(msgs[1].Content, "Explanation: it praises the song.") {
		t.Error("demonstration explanation missing")
	}
}

func TestRenderRelationAddsEntities(t *testing.T) {
	d, err := dataset.Load("spouse", 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	msgs := Render(Base, d, nil, d.Train[0])
	if !strings.Contains(msgs[1].Content, "Entities: "+d.Train[0].Entity1) {
		t.Errorf("entities line missing: %q", msgs[1].Content)
	}
}

func TestRenderClipsLongQueries(t *testing.T) {
	d, err := dataset.Load("imdb", 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// find a long review
	var long *dataset.Example
	for _, e := range d.Train {
		if len(e.Tokens) > MaxQueryTokens+20 {
			long = e
			break
		}
	}
	if long == nil {
		t.Skip("no long review generated at this scale")
	}
	msgs := Render(Base, d, nil, long)
	user := msgs[1].Content
	queryLine := user[strings.LastIndex(user, "Query:"):]
	if n := len(textproc.Tokenize(queryLine)); n > MaxQueryTokens+2 {
		t.Errorf("query rendered with %d tokens, budget %d", n, MaxQueryTokens)
	}
}

func TestAnnotateDemonstration(t *testing.T) {
	d := loadYoutube(t)
	found := false
	for _, e := range d.Valid {
		demo := AnnotateDemonstration(d, e)
		if demo.Label != e.Label {
			t.Fatal("annotation changed the label")
		}
		if len(demo.Keywords) == 0 {
			t.Fatal("annotation produced no keywords at all")
		}
		// when a signal keyword is found it must belong to the example's class
		for _, k := range demo.Keywords {
			if sig, ok := d.Signal.Lookup(k); ok {
				found = true
				if sig.Class != e.Label {
					t.Fatalf("annotated keyword %q signals class %d, example is %d", k, sig.Class, e.Label)
				}
			}
		}
		if demo.Explanation == "" {
			t.Fatal("annotation produced no explanation")
		}
	}
	if !found {
		t.Error("no validation example got a signal-table keyword")
	}
}

func TestClassBalancedSelector(t *testing.T) {
	d := loadYoutube(t)
	sel, err := NewClassBalanced(d, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	demos := sel.Select(d.Train[0], 10)
	if len(demos) != 10 {
		t.Fatalf("selected %d demos, want 10", len(demos))
	}
	counts := map[int]int{}
	for _, demo := range demos {
		counts[demo.Label]++
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("class balance = %v, want 5/5", counts)
	}
	// the fixed set is query-independent
	again := sel.Select(d.Train[1], 10)
	for i := range demos {
		if demos[i].Text != again[i].Text {
			t.Error("class-balanced set varies across queries")
		}
	}
	if sel.Name() != "class-balanced" {
		t.Errorf("name = %q", sel.Name())
	}
}

func TestClassBalancedRejectsMissingClass(t *testing.T) {
	d := loadYoutube(t)
	// strip one class from validation
	var onlyHam []*dataset.Example
	for _, e := range d.Valid {
		if e.Label == 0 {
			onlyHam = append(onlyHam, e)
		}
	}
	d.Valid = onlyHam
	if _, err := NewClassBalanced(d, 10, 1); err == nil {
		t.Error("selector accepted a validation split missing a class")
	}
}

func TestKATESelectsSimilar(t *testing.T) {
	d := loadYoutube(t)
	feat := textproc.NewFeaturizer(4096)
	if err := feat.Fit(dataset.TokenCorpus(d.Train)); err != nil {
		t.Fatal(err)
	}
	kate, err := NewKATEWithOptions(d, feat, KATEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := d.Train[0]
	demos := kate.Select(query, 4)
	if len(demos) != 4 {
		t.Fatalf("selected %d, want 4", len(demos))
	}
	// the last demo (closest) must be at least as similar as the first
	qv := feat.Transform(query.Tokens)
	simOf := func(text string) float64 {
		return qv.Cosine(feat.Transform(textproc.Tokenize(text)))
	}
	if simOf(demos[len(demos)-1].Text) < simOf(demos[0].Text) {
		t.Error("KATE ordering violated: closest example should come last")
	}
	if kate.Name() != "kate" {
		t.Errorf("name = %q", kate.Name())
	}
}

func TestKATERequiresFittedFeaturizer(t *testing.T) {
	d := loadYoutube(t)
	if _, err := NewKATEWithOptions(d, textproc.NewFeaturizer(64), KATEOptions{}); err == nil {
		t.Error("unfitted featurizer accepted")
	}
}

func TestParseResponse(t *testing.T) {
	p, err := ParseResponse("Explanation: spammy ask.\nKeywords: subscribe, check out\nLabel: 1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != 1 || len(p.Keywords) != 2 || p.Keywords[0] != "subscribe" || p.Keywords[1] != "check out" {
		t.Errorf("parsed = %+v", p)
	}
	if p.Explanation != "spammy ask." {
		t.Errorf("explanation = %q", p.Explanation)
	}
}

func TestParseResponseNone(t *testing.T) {
	p, err := ParseResponse("Keywords: none\nLabel: 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Keywords) != 0 || p.Label != 0 {
		t.Errorf("parsed = %+v", p)
	}
}

func TestParseResponseLenient(t *testing.T) {
	cases := []struct {
		in    string
		label int
		kws   []string
	}{
		// trailing punctuation after the label
		{"Keywords: free\nLabel: 1.", 1, []string{"free"}},
		// trailing commentary after the label
		{"Keywords: free\nLabel: 1 (spam)", 1, []string{"free"}},
		// lowercase field names
		{"keywords: subscribe, free\nlabel: 0", 0, []string{"subscribe", "free"}},
		// mixed case with explanation
		{"explanation: looks fine\nKEYWORDS: melody\nLABEL: 0", 0, []string{"melody"}},
	}
	for _, c := range cases {
		p, err := ParseResponse(c.in)
		if err != nil {
			t.Errorf("ParseResponse(%q): %v", c.in, err)
			continue
		}
		if p.Label != c.label {
			t.Errorf("ParseResponse(%q) label = %d, want %d", c.in, p.Label, c.label)
		}
		if len(p.Keywords) != len(c.kws) {
			t.Errorf("ParseResponse(%q) keywords = %v, want %v", c.in, p.Keywords, c.kws)
			continue
		}
		for i, k := range c.kws {
			if p.Keywords[i] != k {
				t.Errorf("ParseResponse(%q) keywords[%d] = %q, want %q", c.in, i, p.Keywords[i], k)
			}
		}
	}
}

func TestParseResponseMalformed(t *testing.T) {
	cases := []string{
		"I'm sorry, as an AI language model I cannot answer.",
		"Keywords: free",                 // no label
		"Label: 1",                       // no keywords
		"Keywords: free\nLabel: spam",    // non-integer label
		"Keywords: free\nLabel: (maybe)", // no leading integer
		"Keywords: free\nLabelled: 1",    // "Label" prefix of a longer word
		"Keywordsmith: free\nLabel: 1",   // "Keywords" prefix of a longer word
		"",
	}
	for _, c := range cases {
		if _, err := ParseResponse(c); err == nil {
			t.Errorf("ParseResponse(%q) succeeded", c)
		}
	}
}

func TestSelfConsistency(t *testing.T) {
	responses := []string{
		"Keywords: subscribe\nLabel: 1",
		"Keywords: check out\nLabel: 1",
		"Keywords: melody\nLabel: 0",
		"Keywords: subscribe, free gift\nLabel: 1",
		"total garbage response",
	}
	p, err := SelfConsistency(responses)
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != 1 {
		t.Errorf("majority label = %d, want 1", p.Label)
	}
	want := []string{"subscribe", "check out", "free gift"}
	if len(p.Keywords) != len(want) {
		t.Fatalf("keywords = %v, want %v", p.Keywords, want)
	}
	for i, k := range want {
		if p.Keywords[i] != k {
			t.Errorf("keywords[%d] = %q, want %q", i, p.Keywords[i], k)
		}
	}
}

func TestSelfConsistencyAllMalformed(t *testing.T) {
	if _, err := SelfConsistency([]string{"junk", "more junk"}); err == nil {
		t.Error("self-consistency over garbage succeeded")
	}
}

func TestSelfConsistencyTieBreaksLowLabel(t *testing.T) {
	p, err := SelfConsistency([]string{
		"Keywords: a\nLabel: 1",
		"Keywords: b\nLabel: 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != 0 {
		t.Errorf("tie broke to %d, want 0", p.Label)
	}
}

func TestSelfConsistencySupportBoundary(t *testing.T) {
	// the support threshold switches exactly at 4 winning votes: with 3,
	// every keyword of a winning sample survives; with 4, one-off
	// keywords are dropped
	three := []string{
		"Keywords: subscribe, oneoff\nLabel: 1",
		"Keywords: subscribe\nLabel: 1",
		"Keywords: subscribe\nLabel: 1",
	}
	p, err := SelfConsistency(three)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Keywords) != 2 {
		t.Errorf("3 winning votes: keywords = %v, want [subscribe oneoff]", p.Keywords)
	}

	four := append(three, "Keywords: subscribe\nLabel: 1")
	p, err = SelfConsistency(four)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Keywords) != 1 || p.Keywords[0] != "subscribe" {
		t.Errorf("4 winning votes: keywords = %v, want [subscribe]", p.Keywords)
	}

	// unparseable samples don't count toward the threshold: 4 samples of
	// which only 3 parse keeps the lenient threshold
	fourOneBroken := append(append([]string{}, three...), "total garbage")
	p, err = SelfConsistency(fourOneBroken)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Keywords) != 2 {
		t.Errorf("3 parseable of 4 samples: keywords = %v, want both", p.Keywords)
	}

	// losing-side votes don't count either: 4 parseable samples but only
	// 3 for the winner keeps the lenient threshold
	fourSplit := append(append([]string{}, three...), "Keywords: melody\nLabel: 0")
	p, err = SelfConsistency(fourSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Keywords) != 2 {
		t.Errorf("3-1 vote split: keywords = %v, want both winning-side keywords", p.Keywords)
	}
}

func TestSelfConsistencyKeywordSupport(t *testing.T) {
	// With >=4 parseable winning samples, keywords need support >= 2:
	// "subscribe" recurs, the one-off padding words are dropped.
	responses := []string{
		"Keywords: subscribe, randomword\nLabel: 1",
		"Keywords: subscribe\nLabel: 1",
		"Keywords: subscribe, otherpad\nLabel: 1",
		"Keywords: subscribe, free gift\nLabel: 1",
		"Keywords: free gift\nLabel: 1",
	}
	p, err := SelfConsistency(responses)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"subscribe": true, "free gift": true}
	if len(p.Keywords) != len(want) {
		t.Fatalf("keywords = %v, want exactly %v", p.Keywords, want)
	}
	for _, k := range p.Keywords {
		if !want[k] {
			t.Errorf("unsupported keyword %q survived", k)
		}
	}
}
