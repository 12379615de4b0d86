// Package textproc provides the text-processing substrate used throughout
// DataSculpt: tokenization, n-gram extraction, vocabulary and document
// frequency statistics, hashed TF-IDF feature vectors and approximate LLM
// token counting.
//
// The paper uses BERT (110M parameters) as a frozen feature extractor for
// (a) KATE nearest-neighbour retrieval of in-context examples and (b) the
// input representation of the downstream logistic-regression model. This
// package substitutes hashed TF-IDF vectors, which preserve both roles:
// topical neighbours share surface vocabulary and a linear end model can
// generalize beyond keyword decision boundaries through correlated
// non-keyword features.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases the input and splits it into word tokens. Letters,
// digits and in-word apostrophes are kept; every other rune is a boundary.
// The output is suitable for n-gram extraction and keyword matching: the
// keyword-based label functions of the paper match on exactly these tokens.
//
// A token of an ASCII text that has no upper-case letter is a substring of
// the text, not a copy, so the tokens keep the text alive. A caller that
// keeps a token beyond the text's lifetime must strings.Clone it.
func Tokenize(text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return tokenizeRunes(text)
		}
	}
	return tokenizeASCII(text)
}

// tokenizeASCII is Tokenize for a text with no byte >= 0x80, where a
// byte is a rune and unicode.IsLetter and IsDigit reduce to [A-Za-z] and
// [0-9]. One pass finds the token spans under the rune path's rules;
// strings.ToLower returns a span without upper case as it is, so such a
// token is a substring of the text.
func tokenizeASCII(text string) []string {
	tokens := make([]string, 0, len(text)/5+1)
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case isASCIILetter(c) || '0' <= c && c <= '9':
			if start < 0 {
				start = i
			}
		case c == '\'' && start >= 0 && i+1 < len(text) && isASCIILetter(text[i+1]):
			// keep in-word apostrophes: "don't" stays one token
		case start >= 0:
			tokens = append(tokens, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, strings.ToLower(text[start:]))
	}
	return tokens
}

// isASCIILetter is unicode.IsLetter for an ASCII byte.
func isASCIILetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// tokenizeRunes is Tokenize for a text with a byte >= 0x80: it decodes
// the text to runes and applies the Unicode letter and digit classes.
func tokenizeRunes(text string) []string {
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

// JoinTokens reassembles tokens into a canonical space-separated phrase.
// Keyword label functions use this canonical form as their key so that
// "check  OUT" and "check out" denote the same bigram.
func JoinTokens(tokens []string) string {
	return strings.Join(tokens, " ")
}

// NormalizePhrase tokenizes a free-form phrase (e.g. a keyword returned by
// an LLM) and returns its canonical form together with its n-gram length.
// An empty phrase returns ("", 0). The canonical form never shares
// memory with the phrase: a one-token phrase's token can be a substring
// of it, and a keyword LF named by it would keep a whole LLM response
// alive.
func NormalizePhrase(phrase string) (string, int) {
	toks := Tokenize(phrase)
	switch len(toks) {
	case 0:
		return "", 0
	case 1:
		return strings.Clone(toks[0]), 1
	}
	return JoinTokens(toks), len(toks)
}

// stopwords is a compact English stop-word list. Stop words are excluded
// from candidate keywords (an LF built on "the" would be vacuous) but kept
// in feature vectors, where IDF already down-weights them.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"a", "an", "the", "and", "or", "but", "if", "then", "else", "of",
		"to", "in", "on", "at", "by", "for", "with", "about", "as", "into",
		"is", "am", "are", "was", "were", "be", "been", "being", "it",
		"its", "this", "that", "these", "those", "i", "you", "he", "she",
		"we", "they", "them", "his", "her", "their", "our", "your", "my",
		"me", "him", "us", "do", "does", "did", "done", "have", "has",
		"had", "will", "would", "can", "could", "shall", "should", "may",
		"might", "must", "not", "no", "so", "too", "very", "just", "than",
		"there", "here", "when", "where", "who", "whom", "which", "what",
		"how", "why", "all", "any", "both", "each", "few", "more", "most",
		"some", "such", "only", "own", "same", "s", "t", "don",
		"from", "under", "again",
		"once", "also", "because", "while", "during", "before", "after",
	} {
		stopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the token is on the stop-word list.
func IsStopword(token string) bool {
	_, ok := stopwords[token]
	return ok
}

// ContentTokens filters out stop words and bare digits, returning tokens
// usable as unigram keyword candidates.
func ContentTokens(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if IsStopword(t) {
			continue
		}
		if isAllDigits(t) {
			continue
		}
		out = append(out, t)
	}
	return out
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
