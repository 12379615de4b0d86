package ann

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"datasculpt/internal/textproc"
)

// clusteredCorpus synthesizes hashed-TF-IDF-like sparse vectors with
// planted clusters: members of a cluster share most of their non-zeros
// (high cosine), plus per-document noise — the regime KATE retrieval
// actually operates in, where a query's true neighbours share keywords
// with it.
func clusteredCorpus(rng *rand.Rand, dim, clusters, perCluster, shared, noise int) []*textproc.SparseVector {
	centers := make([][]int32, clusters)
	for c := range centers {
		seen := map[int32]bool{}
		for len(seen) < shared {
			seen[int32(rng.Intn(dim))] = true
		}
		for f := range seen {
			centers[c] = append(centers[c], f)
		}
		sort.Slice(centers[c], func(i, j int) bool { return centers[c][i] < centers[c][j] })
	}
	var out []*textproc.SparseVector
	for c := 0; c < clusters; c++ {
		for d := 0; d < perCluster; d++ {
			m := map[int32]float32{}
			for _, f := range centers[c] {
				if rng.Float64() < 0.8 { // drop a few shared terms per doc
					m[f] = 0.5 + rng.Float32()
				}
			}
			for k := 0; k < noise; k++ {
				m[int32(rng.Intn(dim))] = 0.2 + 0.6*rng.Float32()
			}
			v := &textproc.SparseVector{}
			for f := range m {
				v.Idx = append(v.Idx, f)
			}
			sort.Slice(v.Idx, func(i, j int) bool { return v.Idx[i] < v.Idx[j] })
			for _, f := range v.Idx {
				v.Val = append(v.Val, m[f])
			}
			v.Normalize()
			out = append(out, v)
		}
	}
	return out
}

// exactTopK returns the ids of the k most cosine-similar corpus vectors
// to q (similarity descending, id ascending on ties) — the ground truth
// the shortlist is judged against.
func exactTopK(corpus []*textproc.SparseVector, q *textproc.SparseVector, k int) []int32 {
	type scored struct {
		id  int32
		sim float64
	}
	all := make([]scored, len(corpus))
	for i, v := range corpus {
		all[i] = scored{int32(i), q.Cosine(v)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		return all[a].id < all[b].id
	})
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// TestRecallProperty is the tentpole's acceptance property: across seeded
// random clustered corpora, the LSH shortlist (at the default candidate
// multiplier) must contain at least 90% of the exact top-k — which, with
// exact re-ranking, is recall@k of the full retrieval stack.
func TestRecallProperty(t *testing.T) {
	const (
		dim  = 2048
		k    = 10
		mult = 16
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := clusteredCorpus(rng, dim, 40, 50, 12, 6) // 2000 docs
		ix := New(Config{Dim: dim, Seed: seed})
		ix.Add(corpus)

		hits, want := 0, 0
		for qi := 0; qi < 40; qi++ {
			q := corpus[rng.Intn(len(corpus))]
			truth := exactTopK(corpus, q, k)
			short := ix.Candidates(q, mult*k)
			in := make(map[int32]bool, len(short))
			for _, id := range short {
				in[id] = true
			}
			for _, id := range truth {
				want++
				if in[id] {
					hits++
				}
			}
		}
		recall := float64(hits) / float64(want)
		t.Logf("seed %d: recall@%d = %.3f", seed, k, recall)
		if recall < 0.9 {
			t.Errorf("seed %d: recall@%d = %.3f, want >= 0.9", seed, k, recall)
		}
	}
}

// TestDeterminismAcrossWorkers: the same seed must yield identical
// shortlists whether the index was sketched sequentially or with
// GOMAXPROCS workers, and across chunked vs one-shot Add.
func TestDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := clusteredCorpus(rng, 1024, 20, 40, 10, 5)
	queries := corpus[:25]

	build := func(workers, chunk int) *Index {
		ix := New(Config{Dim: 1024, Seed: 42, Workers: workers})
		for lo := 0; lo < len(corpus); lo += chunk {
			hi := lo + chunk
			if hi > len(corpus) {
				hi = len(corpus)
			}
			ix.Add(corpus[lo:hi])
		}
		return ix
	}
	seq := build(1, len(corpus))
	parl := build(runtime.GOMAXPROCS(0), 97)

	for qi, q := range queries {
		a := seq.Candidates(q, 64)
		b := parl.Candidates(q, 64)
		if len(a) != len(b) {
			t.Fatalf("query %d: shortlist sizes differ: %d vs %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: shortlists diverge at %d: %d vs %d", qi, i, a[i], b[i])
			}
		}
	}
}

// TestSketchDeterminism: sketches are a pure function of (seed, vector).
func TestSketchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := clusteredCorpus(rng, 512, 5, 10, 8, 4)
	a := New(Config{Dim: 512, Seed: 9})
	b := New(Config{Dim: 512, Seed: 9})
	c := New(Config{Dim: 512, Seed: 10})
	for _, ix := range []*Index{a, b, c} {
		ix.Add(corpus)
	}
	if !slices.Equal(a.sketches, b.sketches) {
		t.Fatalf("sketches differ for identical seeds")
	}
	if slices.Equal(a.sketches, c.sketches) {
		t.Fatalf("different seeds produced identical sketch streams")
	}
}

// TestCandidatesSmallIndex: a target covering the whole index returns
// every id, ascending.
func TestCandidatesSmallIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := clusteredCorpus(rng, 256, 3, 5, 6, 3)
	ix := New(Config{Dim: 256, Seed: 1})
	ix.Add(corpus)
	got := ix.Candidates(corpus[0], len(corpus)+5)
	if len(got) != len(corpus) {
		t.Fatalf("got %d candidates, want %d", len(got), len(corpus))
	}
	for i, id := range got {
		if id != int32(i) {
			t.Fatalf("candidate %d = %d, want %d", i, id, i)
		}
	}
}

// TestCandidatesAscendingAndUnique: shortlists are strictly ascending
// (dedup across tables and the Hamming top-up).
func TestCandidatesAscendingAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := clusteredCorpus(rng, 1024, 30, 30, 10, 5)
	ix := New(Config{Dim: 1024, Seed: 5})
	ix.Add(corpus)
	for qi := 0; qi < 20; qi++ {
		got := ix.Candidates(corpus[rng.Intn(len(corpus))], 50)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("query %d: candidates not strictly ascending at %d: %v <= %v",
					qi, i, got[i], got[i-1])
			}
		}
		if len(got) < 50 {
			t.Fatalf("query %d: got %d candidates, want >= 50", qi, len(got))
		}
	}
}

// TestEmptyQueryVector: a zero vector sketches to all-zero bits and must
// still return a full shortlist without panicking.
func TestEmptyQueryVector(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := clusteredCorpus(rng, 512, 10, 20, 8, 4)
	ix := New(Config{Dim: 512, Seed: 2})
	ix.Add(corpus)
	got := ix.Candidates(&textproc.SparseVector{}, 30)
	if len(got) < 30 {
		t.Fatalf("zero query: got %d candidates, want >= 30", len(got))
	}
}

func BenchmarkSketch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	corpus := clusteredCorpus(rng, 8192, 10, 10, 20, 20)
	ix := New(Config{Dim: 8192, Seed: 1})
	acc, dst := make([]float32, ix.hashes), make([]uint64, ix.words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.sketchInto(corpus[i%len(corpus)], acc, dst)
	}
}
