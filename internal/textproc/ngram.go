package textproc

// NGrams returns all contiguous n-grams of the given order as canonical
// space-joined phrases. It returns nil when the token slice is shorter
// than n or n is not positive.
func NGrams(tokens []string, n int) []string {
	if n <= 0 || len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, JoinTokens(tokens[i:i+n]))
	}
	return out
}

// AllNGrams returns every n-gram of order 1..maxN. This is the candidate
// keyword space of the paper, which restricts label-function keywords to
// unigrams, bigrams and trigrams (maxN = 3).
func AllNGrams(tokens []string, maxN int) []string {
	var total int
	for n := 1; n <= maxN; n++ {
		if len(tokens) >= n {
			total += len(tokens) - n + 1
		}
	}
	out := make([]string, 0, total)
	for n := 1; n <= maxN; n++ {
		out = append(out, NGrams(tokens, n)...)
	}
	return out
}

// MaxKeywordLen is the longest keyword phrase (in tokens) accepted by the
// validity filter, matching the paper's restriction to unigrams, bigrams
// and trigrams.
const MaxKeywordLen = 3

// CandidateKeywords returns the deduplicated n-grams (order 1..MaxKeywordLen)
// of a token sequence that are plausible keyword-LF candidates: n-grams that
// neither start nor end with a stop word and contain at least one content
// token. Order of first appearance is preserved, all unigrams before all
// bigrams before all trigrams, so callers can sample deterministically.
//
// A positive limit stops the enumeration once limit candidates have been
// found. Because the order does not depend on the limit, the bounded
// result is exactly the first limit entries of the unbounded one, and a
// caller that keeps only a prefix never builds the n-gram strings past
// it. A non-positive limit enumerates every candidate.
func CandidateKeywords(tokens []string, limit int) []string {
	if limit <= 0 {
		limit = MaxKeywordLen * len(tokens) // above the n-gram count, never reached
	}
	capacity := min(limit, MaxKeywordLen*len(tokens))
	seen := make(map[string]struct{}, capacity)
	out := make([]string, 0, capacity)
	for n := 1; n <= MaxKeywordLen; n++ {
		for i := 0; i+n <= len(tokens); i++ {
			gram := tokens[i : i+n]
			if IsStopword(gram[0]) || IsStopword(gram[len(gram)-1]) {
				continue
			}
			hasContent := false
			for _, t := range gram {
				if !IsStopword(t) && !isAllDigits(t) {
					hasContent = true
					break
				}
			}
			if !hasContent {
				continue
			}
			key := JoinTokens(gram)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, key)
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// ContainsPhrase reports whether the canonical phrase (space-joined tokens)
// occurs contiguously in the token sequence. Matching is exact on tokens,
// which mirrors how the paper compiles keywords into Python substring
// programs over normalized text.
func ContainsPhrase(tokens []string, phrase string) bool {
	return containsSeq(tokens, SplitPhrase(phrase))
}

// SplitPhrase splits a phrase into its words at runs of spaces, dropping
// empty words. It is the one phrase splitter: ContainsPhrase and the
// inverted index's posting-list lookups both use it, so a phrase matches
// the same documents whichever path evaluates it.
func SplitPhrase(phrase string) []string {
	var out []string
	start := -1
	for i := 0; i < len(phrase); i++ {
		if phrase[i] == ' ' {
			if start >= 0 {
				out = append(out, phrase[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, phrase[start:])
	}
	return out
}

// ContainsTokens is ContainsPhrase with the phrase already split into
// words. Callers checking one phrase against many token sequences (the
// inverted index's posting-list verification) split once and use this,
// instead of paying a phrase re-split per document.
func ContainsTokens(tokens, want []string) bool {
	return containsSeq(tokens, want)
}

func containsSeq(tokens, want []string) bool {
	if len(want) == 0 || len(tokens) < len(want) {
		return false
	}
outer:
	for i := 0; i+len(want) <= len(tokens); i++ {
		for j, w := range want {
			if tokens[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}
