package lf

import (
	"fmt"
	"maps"

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
	ix, _ := new(Index).Extend(split)
	return ix
}

// Extend returns an index over split, whose first Size() examples must
// be the ones ix indexes (the same pointers). Only the tail's tokens are
// read, and token caches of the tail are populated as a side effect. ix
// is unchanged and stays valid: the new index gets its own slot map and
// list headers, and each base list it shares is clipped to its length,
// so appending a tail posting copies that list instead of writing into
// ix's storage. With no tail the new index shares ix's lists.
func (ix *Index) Extend(split []*dataset.Example) (*Index, error) {
	n := len(ix.split)
	if len(split) < n {
		return nil, fmt.Errorf("lf: extending an index of %d examples to a split of %d", n, len(split))
	}
	for i, e := range ix.split {
		if split[i] != e {
			return nil, fmt.Errorf("lf: extending an index: example %d is not the indexed one", i)
		}
	}
	if len(split) == n {
		return &Index{split: split, slot: ix.slot, lists: ix.lists}, nil // nothing to append
	}
	out := &Index{split: split, slot: maps.Clone(ix.slot), lists: make([][]int32, len(ix.lists))}
	if out.slot == nil {
		out.slot = make(map[string]int32, 2048)
	}
	for s, l := range ix.lists {
		out.lists[s] = l[:len(l):len(l)]
	}
	for i := n; i < len(split); i++ {
		e := split[i]
		e.EnsureTokens()
		prev := ""
		for _, tok := range e.Tokens {
			if tok == prev {
				continue // cheap local dedupe; full dedupe below
			}
			prev = tok
			s, ok := out.slot[tok]
			if !ok {
				s = int32(len(out.lists))
				out.slot[tok] = s
				out.lists = append(out.lists, nil)
			} else if l := out.lists[s]; l[len(l)-1] == int32(i) {
				continue
			}
			out.lists[s] = append(out.lists[s], int32(i))
		}
	}
	return out, nil
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

// postingFrom returns the ascending ids, from start on, of the
// documents containing token: the posting list's tail, found by binary
// search.
func (ix *Index) postingFrom(token string, start int32) []int32 {
	list := ix.posting(token)
	if start <= 0 {
		return list
	}
	return list[searchID(list, start):]
}

// Docs returns the ascending document ids whose tokens contain the
// canonical phrase. Single-word phrases come straight from the posting
// list; multi-word phrases intersect the words' posting lists and
// verify contiguity on the survivors.
func (ix *Index) Docs(phrase string) []int32 { return ix.docsFrom(phrase, 0) }

// docsFrom is Docs restricted to the ids from start on.
func (ix *Index) docsFrom(phrase string, start int32) []int32 {
	words := textproc.SplitPhrase(phrase)
	switch len(words) {
	case 0:
		return nil
	case 1:
		return ix.postingFrom(words[0], start)
	}
	var out []int32
	ix.forEachPhraseDoc(words, start, func(id int32) { out = append(out, id) })
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
	ix.forEachPhraseDoc(words, 0, func(int32) { n++ })
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
	ix.forEachPhraseDoc(words, 0, fn)
}

// forEachPhraseDoc walks the documents from start on containing a
// multi-word phrase in ascending id order. A document can only contain
// the phrase if it contains every word, so candidates are the
// intersection of the words' posting lists — seeded from the tail (ids
// from start on) of the rarest word's list, with membership in each
// other list checked by binary search — and only the intersection is
// scanned for contiguity. The per-document token scan uses the pre-split
// words (textproc.ContainsTokens), so nothing re-splits the phrase in
// the loop. Typically the intersection is orders of magnitude smaller
// than any single posting list, which is what makes per-keyword
// coverage/precision queries (the SEU utility cache) cheap.
func (ix *Index) forEachPhraseDoc(words []string, start int32, fn func(id int32)) {
	seed, others := ix.postingFrom(words[0], start), make([][]int32, 0, len(words)-1)
	for _, w := range words[1:] {
		list := ix.postingFrom(w, start)
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

// searchID returns the position of the first id >= id in the ascending
// posting list (len(list) when there is none).
func searchID(list []int32, id int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// containsID reports whether the ascending posting list contains id.
func containsID(list []int32, id int32) bool {
	i := searchID(list, id)
	return i < len(list) && list[i] == id
}

// Eval evaluates the LF once over the indexed split: it returns the
// ascending ids of the documents the LF votes on and the aligned votes.
// A keyword LF reads its documents straight off the posting lists with
// no per-document re-apply (Docs and ContainsPhrase split the phrase
// with the same textproc.SplitPhrase, so this is exact); an entity
// keyword LF applies once per posting candidate; any other LF applies
// once per document. The returned ids may alias index storage and must
// not be mutated; votes is freshly allocated.
func (ix *Index) Eval(f LabelFunction) (ids []int32, votes []int8) { return ix.EvalFrom(f, 0) }

// EvalFrom is Eval over the documents from id start on: the ascending
// ids >= start the LF votes on, with the aligned votes. Posting lists
// are entered at start by binary search and other LFs apply to those
// documents only, so the cost follows the tail, not the split. Every
// posting list is ascending, so a column of the first start documents
// followed by EvalFrom(f, start) is Eval(f).
func (ix *Index) EvalFrom(f LabelFunction, start int) (ids []int32, votes []int8) {
	switch t := f.(type) {
	case *KeywordLF:
		if t.Class == Abstain {
			return nil, nil // an abstain "vote" is no vote
		}
		ids = ix.docsFrom(t.Keyword, int32(start))
		votes = make([]int8, len(ids))
		for i := range votes {
			votes[i] = int8(t.Class)
		}
		return ids, votes
	case *EntityKeywordLF:
		for _, id := range ix.docsFrom(t.Keyword, int32(start)) {
			if v := t.Apply(ix.split[id]); v != Abstain {
				ids = append(ids, id)
				votes = append(votes, int8(v))
			}
		}
		return ids, votes
	default:
		for i := max(start, 0); i < len(ix.split); i++ {
			if v := f.Apply(ix.split[i]); v != Abstain {
				ids = append(ids, int32(i))
				votes = append(votes, int8(v))
			}
		}
		return ids, votes
	}
}
