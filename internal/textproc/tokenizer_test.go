package textproc

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unsafe"
)

// referenceTokenize is Tokenize as it was written before the ASCII fast
// path: the text decoded to runes, each token built rune by rune. Kept
// verbatim as the oracle both of Tokenize's paths must match.
func referenceTokenize(text string) []string {
	tokens := make([]string, 0, len(text)/5+1)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' && b.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
			// keep in-word apostrophes: "don't" stays one token
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"check out my channel!!!", []string{"check", "out", "my", "channel"}},
		{"don't stop", []string{"don't", "stop"}},
		{"A-B testing 123", []string{"a", "b", "testing", "123"}},
		{"it's 'quoted'", []string{"it's", "quoted"}},
		{"end'", []string{"end"}},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"comma,separated,words", []string{"comma", "separated", "words"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeASCIIEdgeCases pins the ASCII fast path's apostrophe,
// case and digit rules, and the switch to the rune path on a non-ASCII
// byte however late it comes; every case must also match the reference.
func TestTokenizeASCIIEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"o''o", []string{"o", "o"}},
		{"end'", []string{"end"}},
		{"'x", []string{"x"}},
		{"A1'B2", []string{"a1'b2"}},
		{"1'a 2'3 a'1", []string{"1'a", "2", "3", "a", "1"}},
		{"rock'n'roll DON'T Don't", []string{"rock'n'roll", "don't", "don't"}},
		{"iPhone McDONALD'S eBay", []string{"iphone", "mcdonald's", "ebay"}},
		{"2024 007 42nd", []string{"2024", "007", "42nd"}},
		{"tab\tnew\nline\x00nul~tilde_under", []string{"tab", "new", "line", "nul", "tilde", "under"}},
		{"Plain ASCII until the very END caf\u00e9", []string{"plain", "ascii", "until", "the", "very", "end", "café"}},
		{"Plain ASCII then one bad byte\xff", []string{"plain", "ascii", "then", "one", "bad", "byte"}},
		{"DON'T\u00a0stop", []string{"don't", "stop"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !slices.Equal(got, c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
		if ref := referenceTokenize(c.in); !slices.Equal(got, ref) {
			t.Errorf("Tokenize(%q) = %q, reference %q", c.in, got, ref)
		}
	}
}

// TestTokenizeLowerASCIIAllocs: a lower-case ASCII text allocates only
// the token slice, because each token is a substring of the text.
func TestTokenizeLowerASCIIAllocs(t *testing.T) {
	text := "great food and friendly staff, we'll be back for the tacos 2 times a week"
	if allocs := testing.AllocsPerRun(100, func() { Tokenize(text) }); allocs != 1 {
		t.Errorf("Tokenize allocates %v objects, want 1", allocs)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Café au lait — très bon")
	want := []string{"café", "au", "lait", "très", "bon"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize unicode = %v, want %v", got, want)
	}
}

func TestTokenizeIdempotentProperty(t *testing.T) {
	// Tokenizing the joined output of Tokenize must be a fixed point.
	f := func(s string) bool {
		first := Tokenize(s)
		second := Tokenize(JoinTokens(first))
		return reflect.DeepEqual(first, second) || (len(first) == 0 && len(second) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeLowercaseProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizePhrase(t *testing.T) {
	cases := []struct {
		in    string
		want  string
		wantN int
	}{
		{"Check OUT", "check out", 2},
		{"  free   ", "free", 1},
		{"my own channel", "my own channel", 3},
		{"", "", 0},
		{"!!!", "", 0},
	}
	for _, c := range cases {
		got, n := NormalizePhrase(c.in)
		if got != c.want || n != c.wantN {
			t.Errorf("NormalizePhrase(%q) = (%q,%d), want (%q,%d)", c.in, got, n, c.want, c.wantN)
		}
		// The canonical form names keyword LFs, which outlive the LLM
		// response it was parsed from: it must not point into the phrase.
		if got != "" {
			p, g := uintptr(unsafe.Pointer(unsafe.StringData(c.in))), uintptr(unsafe.Pointer(unsafe.StringData(got)))
			if p <= g && g < p+uintptr(len(c.in)) {
				t.Errorf("NormalizePhrase(%q) shares the phrase's memory", c.in)
			}
		}
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "not"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"free", "subscribe", "terrible", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestContentTokens(t *testing.T) {
	got := ContentTokens([]string{"the", "movie", "was", "great", "123", "10"})
	want := []string{"movie", "great"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	if got := NGrams(toks, 2); !reflect.DeepEqual(got, []string{"a b", "b c", "c d"}) {
		t.Errorf("bigrams = %v", got)
	}
	if got := NGrams(toks, 4); !reflect.DeepEqual(got, []string{"a b c d"}) {
		t.Errorf("4-grams = %v", got)
	}
	if got := NGrams(toks, 5); got != nil {
		t.Errorf("5-grams of 4 tokens = %v, want nil", got)
	}
	if got := NGrams(toks, 0); got != nil {
		t.Errorf("0-grams = %v, want nil", got)
	}
}

func TestAllNGramsCountProperty(t *testing.T) {
	// |AllNGrams(toks, 3)| must equal sum over n of max(0, len-n+1).
	f := func(raw []byte) bool {
		toks := Tokenize(string(raw))
		got := len(AllNGrams(toks, 3))
		want := 0
		for n := 1; n <= 3; n++ {
			if len(toks) >= n {
				want += len(toks) - n + 1
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCandidateKeywords(t *testing.T) {
	toks := Tokenize("check out the new channel")
	got := CandidateKeywords(toks, 0)
	set := make(map[string]bool)
	for _, k := range got {
		set[k] = true
	}
	if !set["check out"] {
		t.Errorf("expected bigram 'check out' in candidates, got %v", got)
	}
	if set["out the"] {
		t.Errorf("candidate %v ends with stopword", "out the")
	}
	if set["the new"] {
		t.Errorf("candidate %v starts with stopword", "the new")
	}
	// no duplicates
	if len(set) != len(got) {
		t.Errorf("candidates contain duplicates: %v", got)
	}
}

func TestCandidateKeywordsContainedProperty(t *testing.T) {
	// Every candidate keyword must actually occur in the source tokens.
	f := func(raw []byte) bool {
		toks := Tokenize(string(raw))
		for _, k := range CandidateKeywords(toks, 0) {
			if !ContainsPhrase(toks, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContainsPhrase(t *testing.T) {
	toks := Tokenize("please subscribe to my channel for daily vines")
	cases := []struct {
		phrase string
		want   bool
	}{
		{"subscribe", true},
		{"my channel", true},
		{"subscribe to my", true},
		{"channel for daily", true},
		{"daily vines extra", false},
		{"vines daily", false},
		{"", false},
		{"please subscribe to my channel for daily vines", true},
	}
	for _, c := range cases {
		if got := ContainsPhrase(toks, c.phrase); got != c.want {
			t.Errorf("ContainsPhrase(%q) = %v, want %v", c.phrase, got, c.want)
		}
	}
}

func TestApproxLLMTokens(t *testing.T) {
	if got := ApproxLLMTokens(""); got != 0 {
		t.Errorf("empty = %d", got)
	}
	short := ApproxLLMTokens("hello")
	if short < 1 || short > 2 {
		t.Errorf("hello = %d tokens", short)
	}
	long := ApproxLLMTokens(strings.Repeat("word ", 100))
	if long < 100 || long > 150 {
		t.Errorf("100 words = %d tokens, want ~100-125", long)
	}
}
