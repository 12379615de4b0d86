package lf

import (
	"slices"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
)

// applyScan is the reference Index.Eval must match: Apply on every
// document of the split, keeping the non-abstain votes.
func applyScan(split []*dataset.Example, f LabelFunction) (ids []int32, votes []int8) {
	for i, e := range split {
		if v := f.Apply(e); v != Abstain {
			ids = append(ids, int32(i))
			votes = append(votes, int8(v))
		}
	}
	return ids, votes
}

// FuzzIndexEval builds a split from arbitrary corpus text (one document
// per line) and keyword and entity-keyword LFs from raw, unnormalized
// phrases — double spaces, upper case, 4-grams and empty phrases
// included, the way a hand-edited bundle file can carry them — and
// requires Index.Eval to equal the full Apply scan for each LF.
func FuzzIndexEval(f *testing.F) {
	f.Add("free cash now\nwin free  cash\nthe song is free", "free cash", "Free", byte(1), byte(0), byte(0), byte(2))
	f.Add("alpha beta gamma delta\nbeta gamma delta alpha\nalpha beta", "alpha beta gamma delta", "  beta  gamma ", byte(2), byte(3), byte(1), byte(3))
	f.Add("john met mary at the wedding of her sister\nmary said john is the husband of jane", "husband of", "", byte(0), byte(1), byte(4), byte(0))
	f.Add("a b c\n\nc b a", "b", "c b", byte(255), byte(7), byte(255), byte(1))
	f.Fuzz(func(t *testing.T, corpus, phrase1, phrase2 string, class, window, e1, e2 byte) {
		lines := strings.Split(corpus, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		split := make([]*dataset.Example, len(lines))
		for i, line := range lines {
			e := &dataset.Example{ID: i, Text: line, E1Pos: -1, E2Pos: -1}
			e.EnsureTokens()
			// entity positions are token indices (or -1), as the loaders
			// produce them; shift them per document so the windows vary
			if n := len(e.Tokens); n > 0 && e1 != 255 && e2 != 255 {
				e.E1Pos, e.E2Pos = (int(e1)+i)%n, (int(e2)+2*i)%n
			}
			split[i] = e
		}
		ix := NewIndex(split)
		c := int(class%4) - 1 // Abstain included
		lfs := []LabelFunction{
			&KeywordLF{Keyword: phrase1, Class: c},
			&KeywordLF{Keyword: phrase2, Class: int(class) % 3},
			&EntityKeywordLF{Keyword: phrase1, Class: c, Window: int(window % 8)},
			&EntityKeywordLF{Keyword: phrase2, Class: int(class) % 3},
			&PredicateLF{LFName: "even", Class: 1, Fire: func(e *dataset.Example) bool { return len(e.Tokens)%2 == 0 }},
		}
		for _, lf := range lfs {
			ids, votes := ix.Eval(lf)
			wantIDs, wantVotes := applyScan(split, lf)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(votes, wantVotes) {
				t.Fatalf("%s: Eval = %v %v, Apply scan = %v %v", lf.Name(), ids, votes, wantIDs, wantVotes)
			}
		}
	})
}
