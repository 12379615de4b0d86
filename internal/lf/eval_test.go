package lf

import (
	"maps"
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
// per line) and keyword, entity-keyword and disjunction LFs from raw,
// unnormalized phrases — double spaces, upper case, 4-grams and empty
// phrases included, the way a hand-edited bundle file can carry them —
// and requires Index.Eval to equal the full Apply scan for each LF, both
// on NewIndex and on the index of the first k documents extended to
// the whole split; and the column a prefix caches (Eval over the first
// k documents) followed by EvalFrom(k) over the extension to equal it
// too.
func FuzzIndexEval(f *testing.F) {
	f.Add("free cash now\nwin free  cash\nthe song is free", "free cash", "Free", byte(1), byte(0), byte(0), byte(2), byte(1))
	f.Add("alpha beta gamma delta\nbeta gamma delta alpha\nalpha beta", "alpha beta gamma delta", "  beta  gamma ", byte(2), byte(3), byte(1), byte(3), byte(2))
	f.Add("john met mary at the wedding of her sister\nmary said john is the husband of jane", "husband of", "", byte(0), byte(1), byte(4), byte(0), byte(0))
	f.Add("a b c\n\nc b a", "b", "c b", byte(255), byte(7), byte(255), byte(1), byte(3))
	f.Fuzz(func(t *testing.T, corpus, phrase1, phrase2 string, class, window, e1, e2, k byte) {
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
		at := int(k) % (len(split) + 1)
		head := NewIndex(split[:at])
		ext, err := head.Extend(split)
		if err != nil {
			t.Fatal(err)
		}
		c := int(class%4) - 1 // Abstain included
		lfs := []LabelFunction{
			&KeywordLF{Keyword: phrase1, Class: c},
			&KeywordLF{Keyword: phrase2, Class: int(class) % 3},
			&EntityKeywordLF{Keyword: phrase1, Class: c, Window: int(window % 8)},
			&EntityKeywordLF{Keyword: phrase2, Class: int(class) % 3},
			&DisjunctionLF{LFName: "d", Keywords: []string{phrase1, phrase2}, Class: int(class) % 3},
			&DisjunctionLF{LFName: "de", Keywords: []string{phrase2, phrase1}, Class: c, EntityAware: true, Window: int(window % 8)},
			&PredicateLF{LFName: "even", Class: 1, Fire: func(e *dataset.Example) bool { return len(e.Tokens)%2 == 0 }},
		}
		for _, lf := range lfs {
			wantIDs, wantVotes := applyScan(split, lf)
			for name, ix := range map[string]*Index{"NewIndex": NewIndex(split), "Extend": ext} {
				ids, votes := ix.Eval(lf)
				if !slices.Equal(ids, wantIDs) || !slices.Equal(votes, wantVotes) {
					t.Fatalf("%s over %s: Eval = %v %v, Apply scan = %v %v", lf.Name(), name, ids, votes, wantIDs, wantVotes)
				}
			}
			if ids, votes := cachedThenTail(head, ext, lf); !slices.Equal(ids, wantIDs) || !slices.Equal(votes, wantVotes) {
				t.Fatalf("%s split at %d: cached column + tail = %v %v, Apply scan = %v %v", lf.Name(), at, ids, votes, wantIDs, wantVotes)
			}
		}
	})
}

// cachedThenTail is a column as a prefix cache assembles it: the LF's
// column over head's documents followed by its column over ext's tail.
func cachedThenTail(head, ext *Index, f LabelFunction) ([]int32, []int8) {
	ids, votes := head.Eval(f)
	tailIDs, tailVotes := ext.EvalFrom(f, head.Size())
	return append(slices.Clone(ids), tailIDs...), append(slices.Clone(votes), tailVotes...)
}

// TestEvalFromEverySplit: at every split point of a small corpus, the
// cached column followed by the tail column equals the Apply scan for
// keyword (one- to three-word), entity-keyword and disjunction LFs, and
// EvalFrom on the whole index holds exactly the Apply scan's ids from
// the split point on.
func TestEvalFromEverySplit(t *testing.T) {
	texts := []string{
		"free cash now", "win free cash", "the song is free", "", "cash cash cash prize",
		"subscribe to my channel", "free cash free cash", "great song", "win free cash now",
		"free free song now", "win a prize", "now", "my channel is free cash",
	}
	split := make([]*dataset.Example, len(texts))
	for i, text := range texts {
		e := &dataset.Example{ID: i, Text: text, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		if n := len(e.Tokens); n > 1 {
			e.E1Pos, e.E2Pos = 0, n-1
		}
		split[i] = e
	}
	lfs := []LabelFunction{
		&KeywordLF{Keyword: "free", Class: 1},
		&KeywordLF{Keyword: "free cash", Class: 0},
		&KeywordLF{Keyword: "win free cash", Class: 2},
		&KeywordLF{Keyword: "cash free", Class: 1},
		&KeywordLF{Keyword: "absent", Class: 1},
		&KeywordLF{Keyword: "now", Class: Abstain},
		&EntityKeywordLF{Keyword: "cash", Class: 1},
		&EntityKeywordLF{Keyword: "free cash", Class: 0, Window: 1},
		&DisjunctionLF{LFName: "d", Keywords: []string{"prize", "my channel"}, Class: 2},
		&DisjunctionLF{LFName: "de", Keywords: []string{"song", "free cash"}, Class: 1, EntityAware: true, Window: 1},
	}
	whole := NewIndex(split)
	for at := 0; at <= len(split); at++ {
		head := NewIndex(split[:at])
		ext, err := head.Extend(split)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range lfs {
			wantIDs, wantVotes := applyScan(split, f)
			if ids, votes := cachedThenTail(head, ext, f); !slices.Equal(ids, wantIDs) || !slices.Equal(votes, wantVotes) {
				t.Errorf("%s split at %d: cached column + tail = %v %v, Apply scan = %v %v", f.Name(), at, ids, votes, wantIDs, wantVotes)
			}
			from := 0
			for from < len(wantIDs) && wantIDs[from] < int32(at) {
				from++
			}
			if ids, votes := whole.EvalFrom(f, at); !slices.Equal(ids, wantIDs[from:]) || !slices.Equal(votes, wantVotes[from:]) {
				t.Errorf("%s: EvalFrom(%d) = %v %v, want %v %v", f.Name(), at, ids, votes, wantIDs[from:], wantVotes[from:])
			}
		}
	}
}

// postings snapshots every posting list of ix by token.
func postings(ix *Index) map[string][]int32 {
	out := make(map[string][]int32, len(ix.slot))
	for tok, s := range ix.slot {
		out[tok] = slices.Clone(ix.lists[s])
	}
	return out
}

// TestIndexExtendMatchesNewIndex: extending the index of any prefix of a
// split, empty and whole included, gives NewIndex's posting lists; two
// extensions of one base do not see each other's tails and leave the
// base as it was; a split that does not start with the indexed examples
// is refused.
func TestIndexExtendMatchesNewIndex(t *testing.T) {
	texts := []string{
		"free cash now", "win free cash", "the song is free", "", "cash cash cash prize",
		"subscribe to my channel", "great song", "free free song now", "win a prize", "now",
	}
	split := make([]*dataset.Example, len(texts))
	for i, text := range texts {
		split[i] = &dataset.Example{ID: i, Text: text, E1Pos: -1, E2Pos: -1}
	}
	want := postings(NewIndex(split))
	for k := 0; k <= len(split); k++ {
		ext, err := NewIndex(split[:k]).Extend(split)
		if err != nil {
			t.Fatal(err)
		}
		if got := postings(ext); !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("split at %d: posting lists %v, NewIndex %v", k, got, want)
		}
		if ext.Size() != len(split) {
			t.Fatalf("split at %d: size %d", k, ext.Size())
		}
	}

	base := NewIndex(split[:4])
	before := postings(base)
	// Both tails add "free", whose base list has spare capacity, at
	// different ids: an extension writing into the shared base array
	// would show in the other.
	tailA := append(slices.Clip(split[:4]), split[5], split[7], split[4])
	tailB := append(slices.Clip(split[:4]), split[7], split[8])
	extA, err := base.Extend(tailA)
	if err != nil {
		t.Fatal(err)
	}
	extB, err := base.Extend(tailB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := postings(extA), postings(NewIndex(tailA)); !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("first extension %v, NewIndex %v", got, want)
	}
	if got, want := postings(extB), postings(NewIndex(tailB)); !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("second extension %v, NewIndex %v", got, want)
	}
	if got := postings(base); !maps.EqualFunc(got, before, slices.Equal) || base.Size() != 4 {
		t.Errorf("base changed by its extensions: %v, was %v", got, before)
	}

	if _, err := base.Extend(split[:3]); err == nil {
		t.Error("extension to a shorter split accepted")
	}
	other := slices.Clone(split)
	other[2] = &dataset.Example{ID: 2, Text: texts[2], E1Pos: -1, E2Pos: -1}
	if _, err := base.Extend(other); err == nil {
		t.Error("extension over a different example accepted")
	}
}
