package llm

import (
	"context"
	"sort"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
)

func youtubeDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Load("youtube", 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func basePrompt(query string) []Message {
	return []Message{
		{Role: System, Content: "You are a helpful assistant who helps users in a spam detection task. " +
			"After the user provides input, identify a list of keywords that helps making prediction. " +
			"Finally, provide the class label for the input."},
		{Role: User, Content: "Query: love this song so much\nKeywords: love this song\nLabel: 0\n\n" +
			"Query: subscribe to my channel\nKeywords: subscribe\nLabel: 1\n\n" +
			"Query: " + query},
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"gpt-3.5", "gpt-4", "llama2-7b", "llama2-13b", "llama2-70b",
		"gpt-3.5-turbo-0613", "llama2-70b-chat"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%s): %v", name, err)
		}
	}
	if _, err := ProfileByName("gpt-99"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestProfileOrdering(t *testing.T) {
	// The calibration must preserve the paper's quality ordering.
	g4, _ := ProfileByName("gpt-4")
	g35, _ := ProfileByName("gpt-3.5")
	l70, _ := ProfileByName("llama2-70b")
	l13, _ := ProfileByName("llama2-13b")
	l7, _ := ProfileByName("llama2-7b")
	if !(g4.LabelAccuracy > g35.LabelAccuracy && g35.LabelAccuracy >= l70.LabelAccuracy) {
		t.Error("label accuracy ordering violated for top tiers")
	}
	if !(l70.LabelAccuracy > l13.LabelAccuracy && l70.LabelAccuracy > l7.LabelAccuracy) {
		t.Error("llama-70b should beat small llamas")
	}
	if !(l7.OffTask > g35.OffTask && l13.OffTask > g35.OffTask) {
		t.Error("small llamas should go off-task more")
	}
	if !(g4.PromptPricePer1M > g35.PromptPricePer1M) {
		t.Error("gpt-4 should cost more than gpt-3.5")
	}
}

// TestSimulatedModelName checks that a short model name resolves to the
// provider identifier the simulator reports (and bills under).
func TestSimulatedModelName(t *testing.T) {
	m, err := NewSimulated("gpt-4", youtubeDS(t), 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ModelName(); got != "gpt-4-0613" {
		t.Errorf("ModelName = %s, want gpt-4-0613", got)
	}
}

func TestSimulatedChatBasic(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("gpt-3.5", d, 42)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Chat(context.Background(), basePrompt("please subscribe to my channel for daily videos"), 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 {
		t.Fatalf("%d responses for n=1", len(resp))
	}
	if resp[0].Usage.PromptTokens <= 0 || resp[0].Usage.CompletionTokens <= 0 {
		t.Errorf("usage = %+v", resp[0].Usage)
	}
	if !strings.Contains(resp[0].Content, "Keywords:") || !strings.Contains(resp[0].Content, "Label:") {
		t.Errorf("malformed response: %q", resp[0].Content)
	}
}

func TestSimulatedSpotsSignals(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("gpt-4", d, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Run many samples on a spam-signal query; GPT-4 should usually
	// return "subscribe" with label 1.
	hits, labels1 := 0, 0
	n := 100
	resp, err := m.Chat(context.Background(), basePrompt("hey guys subscribe to my channel for free gift cards"), 0.7, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp {
		if strings.Contains(r.Content, "subscribe") {
			hits++
		}
		if strings.Contains(r.Content, "Label: 1") {
			labels1++
		}
	}
	if hits < n/2 {
		t.Errorf("gpt-4 spotted 'subscribe' only %d/%d times", hits, n)
	}
	if labels1 < n*3/4 {
		t.Errorf("gpt-4 labeled spam only %d/%d times", labels1, n)
	}
}

func TestSimulatedCoTAddsExplanation(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("gpt-3.5", d, 3)
	if err != nil {
		t.Fatal(err)
	}
	msgs := basePrompt("subscribe now friends")
	msgs[0].Content = "You are a helpful assistant. After the user provides input, " +
		"first explain your reason process step by step. Then identify a list of keywords."
	resp, err := m.Chat(context.Background(), msgs, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp {
		if strings.Contains(r.Content, "Keywords:") && !strings.Contains(r.Content, "Explanation:") {
			t.Errorf("CoT prompt produced no explanation: %q", r.Content)
		}
	}
}

func TestSimulatedDeterministic(t *testing.T) {
	d := youtubeDS(t)
	m1, _ := NewSimulated("gpt-3.5", d, 99)
	m2, _ := NewSimulated("gpt-3.5", d, 99)
	msgs := basePrompt("check out this amazing video")
	r1, err := m1.Chat(context.Background(), msgs, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Chat(context.Background(), msgs, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].Content != r2[i].Content {
			t.Fatalf("sample %d differs across equal seeds", i)
		}
	}
}

func TestSimulatedSmallModelOffTask(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("llama2-7b", d, 5)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Chat(context.Background(), basePrompt("subscribe please"), 0.7, 300)
	if err != nil {
		t.Fatal(err)
	}
	offTask := 0
	for _, r := range resp {
		if strings.Contains(r.Content, "another example input") ||
			strings.Contains(r.Content, "as an AI language model") {
			offTask++
		}
	}
	// profile OffTask = 0.14; expect a clearly nonzero fraction
	if offTask < 10 || offTask > 150 {
		t.Errorf("llama2-7b off-task %d/300, want roughly 14%%", offTask)
	}
}

func TestSimulatedRejectsBadInput(t *testing.T) {
	d := youtubeDS(t)
	m, _ := NewSimulated("gpt-3.5", d, 1)
	if _, err := m.Chat(context.Background(), nil, 0.7, 1); err == nil {
		t.Error("empty prompt accepted")
	}
	if _, err := m.Chat(context.Background(), basePrompt("x"), 0.7, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := m.Chat(context.Background(), basePrompt("x"), -1, 1); err == nil {
		t.Error("negative temperature accepted")
	}
	noQuery := []Message{{Role: User, Content: "no query line here"}}
	if _, err := m.Chat(context.Background(), noQuery, 0.7, 1); err == nil {
		t.Error("prompt without Query accepted")
	}
}

func TestMeter(t *testing.T) {
	d := youtubeDS(t)
	m, _ := NewSimulated("gpt-3.5", d, 1)
	meter := NewMeter(m)
	resp, err := m.Chat(context.Background(), basePrompt("subscribe now"), 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	meter.Record(resp)
	if meter.Calls() != 1 {
		t.Errorf("calls = %d", meter.Calls())
	}
	if meter.TotalTokens() <= 0 {
		t.Error("no tokens recorded")
	}
	cost := meter.CostUSD()
	wantCost := float64(meter.PromptTokens())/1e6*1.5 + float64(meter.CompletionTokens())/1e6*2.0
	if cost != wantCost {
		t.Errorf("cost = %v, want %v", cost, wantCost)
	}
	meter.Record(resp)
	if meter.Calls() != 2 {
		t.Errorf("calls after a second record = %d", meter.Calls())
	}
	if !strings.Contains(meter.String(), "gpt-3.5-turbo-0613") {
		t.Errorf("meter string = %q", meter.String())
	}
}

func TestCountMessageTokens(t *testing.T) {
	msgs := []Message{
		{Role: System, Content: "four words in here"},
		{Role: User, Content: "and five more words here"},
	}
	got := CountMessageTokens(msgs)
	if got < 9 || got > 25 {
		t.Errorf("token count = %d, want ~9-25", got)
	}
}

func TestNegClassReluctance(t *testing.T) {
	d, err := dataset.Load("spouse", 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSimulated("gpt-3.5", d, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Query with a clear negative-class phrase; with the default class set
	// most class-0 responses should decline to give keywords.
	msgs := []Message{
		{Role: System, Content: "You are a helpful assistant in a relation classification task."},
		{Role: User, Content: "Query: john smith worked with mary jones at the company office"},
	}
	resp, err := m.Chat(context.Background(), msgs, 0.7, 200)
	if err != nil {
		t.Fatal(err)
	}
	label0, noKeywords := 0, 0
	for _, r := range resp {
		if strings.Contains(r.Content, "Label: 0") {
			label0++
			if strings.Contains(r.Content, "Keywords: none") {
				noKeywords++
			}
		}
	}
	if label0 == 0 {
		t.Fatal("model never predicted the negative class")
	}
	if float64(noKeywords)/float64(label0) < 0.4 {
		t.Errorf("negative-class keyword reluctance %d/%d, want majority", noKeywords, label0)
	}
}

func TestGenericKeywordDeterministicPerQuery(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("llama2-7b", d, 17)
	if err != nil {
		t.Fatal(err)
	}
	// llama2-7b pads generic keywords often; across many samples of the
	// same prompt the padded keyword must always be the same phrase
	// (query-hashed), or self-consistency would discard it.
	resp, err := m.Chat(context.Background(), basePrompt("subscribe for more daily uploads people"), 0.7, 200)
	if err != nil {
		t.Fatal(err)
	}
	generic := map[string]int{}
	for _, r := range resp {
		p := r.Content
		// collect keywords not present in the query
		for _, line := range strings.Split(p, "\n") {
			if !strings.HasPrefix(line, "Keywords:") {
				continue
			}
			for _, kw := range strings.Split(strings.TrimPrefix(line, "Keywords:"), ",") {
				kw = strings.TrimSpace(kw)
				if kw == "" || kw == "none" {
					continue
				}
				if !strings.Contains("subscribe for more daily uploads people", kw) {
					generic[kw]++
				}
			}
		}
	}
	if len(generic) == 0 {
		t.Fatal("llama2-7b never padded an ungrounded keyword in 200 samples")
	}
	// The generic pick is hashed per (query,label): one stable phrase per
	// label class must dominate the ungrounded mass (one-off entries come
	// from off-task fabrications and trimmed variants).
	var counts []int
	total := 0
	for _, c := range generic {
		counts = append(counts, c)
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top2 := counts[0]
	if len(counts) > 1 {
		top2 += counts[1]
	}
	if float64(top2)/float64(total) < 0.5 {
		t.Errorf("ungrounded keywords too diverse for self-consistency: %v", generic)
	}
}

func TestTrimmedVariantKeywords(t *testing.T) {
	d := youtubeDS(t)
	m, err := NewSimulated("gpt-3.5", d, 23)
	if err != nil {
		t.Fatal(err)
	}
	// "gift card" is a spam signal; across many samples some responses
	// should also contain the trimmed variant "card".
	resp, err := m.Chat(context.Background(), basePrompt("win a gift card today friends"), 0.7, 300)
	if err != nil {
		t.Fatal(err)
	}
	full, trimmed := 0, 0
	for _, r := range resp {
		if strings.Contains(r.Content, "gift card") {
			full++
			if strings.Contains(r.Content, "card,") || strings.HasSuffix(r.Content, "card") ||
				strings.Contains(r.Content, ", card") {
				trimmed++
			}
		}
	}
	if full == 0 {
		t.Fatal("signal phrase never spotted")
	}
	if trimmed == 0 {
		t.Error("trimmed variant never emitted in 300 samples")
	}
}
