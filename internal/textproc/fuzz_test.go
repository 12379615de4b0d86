package textproc

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize drives the tokenizer with arbitrary (possibly invalid)
// UTF-8. Tokenize feeds every downstream consumer — keyword matching,
// n-gram candidates, feature hashing — so it must never panic, it must
// match referenceTokenize token for token whichever path the text takes,
// and its output contract must hold for any input: non-empty lowercase tokens
// with no separators, stable under re-tokenization (the canonicalization
// keyword LFs rely on: NormalizePhrase of a phrase already canonical is
// the identity).
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"Hello, World!",
		"don't stop",
		"A-B testing 123",
		"it's 'quoted'",
		"end'",
		"Café au lait — très bon",
		"CHECK OUT my channel!!! http://spam.example/x?y=1",
		"樹木 trees 🌲 mixed",
		"  \t\r\n  ",
		"o''o", "'", "a'9", "İstanbul",
		"0ϓ", // U+03D3: uppercase letter with no lowercase mapping
		string([]byte{0xff, 0xfe, 'a', 'b'}),
		"'x A1'B2 1'a DON'T", "McDONALD'S 42nd 007",
		"plain ASCII until a late byte\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		if want := referenceTokenize(text); !slices.Equal(tokens, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, tokens, want)
		}
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				// Not IsUpper: some uppercase letters (e.g. U+03D3) have no
				// lowercase mapping. The contract is that lowercasing is a
				// fixed point, so repeated tokenization cannot diverge.
				if unicode.ToLower(r) != r {
					t.Fatalf("token %q not lowercased", tok)
				}
				if unicode.IsSpace(r) {
					t.Fatalf("token %q contains a separator", tok)
				}
			}
			if strings.HasPrefix(tok, "'") || strings.HasSuffix(tok, "'") {
				t.Fatalf("token %q has a dangling apostrophe", tok)
			}
		}

		// Canonical form is a fixed point: re-tokenizing the joined tokens
		// reproduces them exactly.
		again := Tokenize(JoinTokens(tokens))
		if len(again) != len(tokens) {
			t.Fatalf("re-tokenize: %d tokens became %d (%q -> %q)", len(tokens), len(again), tokens, again)
		}
		for i := range tokens {
			if tokens[i] != again[i] {
				t.Fatalf("re-tokenize changed token %d: %q -> %q", i, tokens[i], again[i])
			}
		}

		// NormalizePhrase agrees with Tokenize on emptiness and length.
		phrase, n := NormalizePhrase(text)
		if n != len(tokens) {
			t.Fatalf("NormalizePhrase n=%d, Tokenize produced %d", n, len(tokens))
		}
		if (phrase == "") != (len(tokens) == 0) {
			t.Fatalf("NormalizePhrase %q vs %d tokens", phrase, len(tokens))
		}
	})
}

// FuzzTransform drives the featurizer with arbitrary text at a narrow,
// fuzzed width, where signed collisions are frequent. The vector must
// never panic, must be structurally valid, and must equal the map-based
// reference bit for bit.
func FuzzTransform(f *testing.F) {
	for _, seed := range []string{
		"",
		"free cash prize prize prize",
		"CHECK OUT my channel!!! http://spam.example/x?y=1",
		"the the the of of and",
		"樹木 trees 🌲 mixed 123 456",
		string([]byte{0xff, 0xfe, 'a', 'b'}),
	} {
		f.Add(seed, uint8(7))
	}
	corpus := [][]string{
		Tokenize("check out my new channel"),
		Tokenize("great song love it"),
		Tokenize("free cash prize click here"),
	}
	f.Fuzz(func(t *testing.T, text string, width uint8) {
		dim := 1 + int(width%16)
		fz := NewFeaturizer(dim)
		if err := fz.Fit(corpus); err != nil {
			t.Fatal(err)
		}
		tokens := Tokenize(text)
		v := fz.Transform(tokens)
		if err := v.Validate(dim); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if err := sameBits(v, referenceTransform(fz, tokens)); err != nil {
			t.Fatalf("dim %d, tokens %q: %v", dim, tokens, err)
		}
	})
}
