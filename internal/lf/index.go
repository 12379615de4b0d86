package lf

import (
	"datasculpt/internal/dataset"
	"datasculpt/internal/textproc"
)

// Index is an inverted unigram index over one dataset split. It makes
// keyword-LF evaluation fast: instead of scanning every document for every
// phrase (hundreds of LFs × up to 96k documents on Agnews), phrase lookups
// seed from the posting list of the phrase's rarest word and verify only
// those candidates.
type Index struct {
	split []*dataset.Example
	// slot maps a token to its ascending posting list in lists, so
	// building the index finds a token's list with one map lookup.
	slot  map[string]int32
	lists [][]int32
}

// NewIndex builds the index. Token caches are populated as a side effect.
func NewIndex(split []*dataset.Example) *Index {
	ix := &Index{
		split: split,
		slot:  make(map[string]int32, 2048),
	}
	for i, e := range split {
		e.EnsureTokens()
		prev := ""
		for _, tok := range e.Tokens {
			if tok == prev {
				continue // cheap local dedupe; full dedupe below
			}
			prev = tok
			s, ok := ix.slot[tok]
			if !ok {
				s = int32(len(ix.lists))
				ix.slot[tok] = s
				ix.lists = append(ix.lists, nil)
			} else if l := ix.lists[s]; l[len(l)-1] == int32(i) {
				continue
			}
			ix.lists[s] = append(ix.lists[s], int32(i))
		}
	}
	return ix
}

// posting returns the ascending ids of the documents containing token.
func (ix *Index) posting(token string) []int32 {
	if s, ok := ix.slot[token]; ok {
		return ix.lists[s]
	}
	return nil
}

// Size returns the number of indexed documents.
func (ix *Index) Size() int { return len(ix.split) }

// Split returns the indexed examples.
func (ix *Index) Split() []*dataset.Example { return ix.split }

// DocFreq returns how many documents contain the given single token.
func (ix *Index) DocFreq(token string) int { return len(ix.posting(token)) }

// Docs returns the ascending document ids whose tokens contain the
// canonical phrase. Single-word phrases come straight from the posting
// list; multi-word phrases intersect the words' posting lists and
// verify contiguity on the survivors.
func (ix *Index) Docs(phrase string) []int32 {
	words := textproc.SplitPhrase(phrase)
	switch len(words) {
	case 0:
		return nil
	case 1:
		return ix.posting(words[0])
	}
	var out []int32
	ix.forEachPhraseDoc(words, func(id int32) { out = append(out, id) })
	return out
}

// CountDocs returns how many documents contain the canonical phrase —
// len(Docs(phrase)) without materializing the id slice for multi-word
// phrases. Hot callers that only need coverage (the SEU keyword-utility
// cache) use this to stay allocation-free.
func (ix *Index) CountDocs(phrase string) int {
	words := textproc.SplitPhrase(phrase)
	switch len(words) {
	case 0:
		return 0
	case 1:
		return len(ix.posting(words[0]))
	}
	n := 0
	ix.forEachPhraseDoc(words, func(int32) { n++ })
	return n
}

// ForEachDoc calls fn for every document containing the canonical
// phrase, in ascending id order, without allocating an id slice.
func (ix *Index) ForEachDoc(phrase string, fn func(id int32)) {
	words := textproc.SplitPhrase(phrase)
	switch len(words) {
	case 0:
		return
	case 1:
		for _, id := range ix.posting(words[0]) {
			fn(id)
		}
		return
	}
	ix.forEachPhraseDoc(words, fn)
}

// forEachPhraseDoc walks the documents containing a multi-word phrase in
// ascending id order. A document can only contain the phrase if it
// contains every word, so candidates are the intersection of the words'
// posting lists — seeded from the rarest word, with membership in each
// other list checked by binary search — and only the intersection is
// scanned for contiguity. The per-document token scan uses the pre-split
// words (textproc.ContainsTokens), so nothing re-splits the phrase in
// the loop. Typically the intersection is orders of magnitude smaller
// than any single posting list, which is what makes per-keyword
// coverage/precision queries (the SEU utility cache) cheap.
func (ix *Index) forEachPhraseDoc(words []string, fn func(id int32)) {
	seed, others := ix.posting(words[0]), make([][]int32, 0, len(words)-1)
	for _, w := range words[1:] {
		list := ix.posting(w)
		if len(list) == 0 {
			return
		}
		if len(list) < len(seed) {
			seed, list = list, seed
		}
		others = append(others, list)
	}
	if len(seed) == 0 {
		return
	}
candidates:
	for _, id := range seed {
		for _, list := range others {
			if !containsID(list, id) {
				continue candidates
			}
		}
		if textproc.ContainsTokens(ix.split[id].Tokens, words) {
			fn(id)
		}
	}
}

// containsID reports whether the ascending posting list contains id.
func containsID(list []int32, id int32) bool {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo] == id
}

// Eval evaluates the LF once over the indexed split: it returns the
// ascending ids of the documents the LF votes on and the aligned votes.
// A keyword LF reads its documents straight off the posting lists with
// no per-document re-apply (Docs and ContainsPhrase split the phrase
// with the same textproc.SplitPhrase, so this is exact); an entity
// keyword LF applies once per posting candidate; any other LF applies
// once per document. The returned ids may alias index storage and must
// not be mutated; votes is freshly allocated.
func (ix *Index) Eval(f LabelFunction) (ids []int32, votes []int8) {
	switch t := f.(type) {
	case *KeywordLF:
		if t.Class == Abstain {
			return nil, nil // an abstain "vote" is no vote
		}
		ids = ix.Docs(t.Keyword)
		votes = make([]int8, len(ids))
		for i := range votes {
			votes[i] = int8(t.Class)
		}
		return ids, votes
	case *EntityKeywordLF:
		for _, id := range ix.Docs(t.Keyword) {
			if v := t.Apply(ix.split[id]); v != Abstain {
				ids = append(ids, id)
				votes = append(votes, int8(v))
			}
		}
		return ids, votes
	default:
		for i, e := range ix.split {
			if v := f.Apply(e); v != Abstain {
				ids = append(ids, int32(i))
				votes = append(votes, int8(v))
			}
		}
		return ids, votes
	}
}
