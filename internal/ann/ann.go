// Package ann provides approximate nearest-neighbour retrieval over the
// hashed TF-IDF sparse vectors the rest of the pipeline already produces,
// so KATE demonstration retrieval stays cheap when the example pool grows
// to hundreds of thousands of documents.
//
// The index is a signed-random-projection (SimHash) LSH: every vector is
// sketched into Tables×Bits sign bits against a matrix of seeded ±1
// hyperplanes, and the sketch is banded into Tables bucket keys of Bits
// bits each. A query gathers the documents sharing at least one band
// bucket with it — the classic multi-table banding shortlist, sublinear
// on clustered corpora — and, whenever the buckets alone cannot fill the
// requested shortlist, tops it up with the documents whose full sketches
// are Hamming-closest to the query's. The Hamming pass is a linear scan,
// but over a few machine words per document (XOR + popcount), which costs
// one to two orders of magnitude less than the exact sparse cosine scan
// it stands in for; it is what bounds recall when bucket collisions are
// sparse. Callers are expected to re-rank the returned shortlist with
// exact cosine similarity, so whenever the true neighbours are inside
// the shortlist the final ranking is identical to the exact scan's.
//
// Everything is deterministic: the hyperplanes are derived from the seed
// by a self-contained SplitMix64 generator (no dependency on math/rand's
// stream), documents are sketched independently (so Add may fan out over
// any number of workers), and bucket posting lists are always stored in
// ascending document order. The same (seed, corpus) pair yields the same
// shortlist at every worker count.
package ann

import (
	"fmt"
	"math/bits"
	"sort"

	"datasculpt/internal/par"
	"datasculpt/internal/textproc"
)

// Defaults chosen for the hashed TF-IDF corpora in this repo: 64 bands
// of 16 bits give a 1024-bit sketch (sixteen uint64 words, 128 bytes per
// document) and bucket keys selective enough that banding stays cheap at
// 10^6 docs. The sketch width is what bounds recall on corpora whose
// bucket collisions are sparse — the Hamming top-up ranks documents by
// sketch distance, and 1024 bits estimate the cosine ordering tightly
// enough for recall@10 >= 0.9 at a 16x-shots shortlist (measured in
// BENCH_scale.json); 128 bits topped out near 0.34 on the same corpus.
const (
	DefaultTables = 64
	DefaultBits   = 16
)

// Config parameterizes an Index.
type Config struct {
	// Dim is the feature dimensionality (textproc.Featurizer.Dim).
	Dim int
	// Tables is the number of band hash tables (default DefaultTables).
	Tables int
	// Bits is the band width in sign bits, at most 32 (default
	// DefaultBits). Tables×Bits is the sketch width.
	Bits int
	// Seed derives the random hyperplanes. The same seed always yields
	// the same projections, independent of worker count or Go version.
	Seed int64
	// Workers bounds the sketching fan-out in Add (<= 1 sequential;
	// results are identical at every setting).
	Workers int
}

// Index is the LSH index. Build it once with Add (chunked calls are fine
// — ingestion does not need the whole corpus resident), then query it
// concurrently with Candidates; Add and Candidates must not race.
type Index struct {
	cfg    Config
	hashes int // Tables * Bits
	words  int // sketch words per doc

	// proj is the projection matrix stored feature-major: proj[f] holds
	// the ±1 coefficient of feature f against each of the `hashes`
	// hyperplanes, so sketching walks one contiguous row per non-zero.
	proj [][]float32

	// sketches holds the packed sign bits of every added vector,
	// words-per-doc consecutive uint64s.
	sketches []uint64
	// tables maps each band key to the ascending ids that share it.
	tables []map[uint32][]int32
	n      int

	// scratch for Candidates (single query goroutine at a time).
	visited []int32
	epoch   int32
	heap    []hamCand
}

// splitmix64 is the deterministic seed expander behind the projections
// (Steele et al. 2014). It is self-contained so index layouts never
// change underneath persisted benchmarks when the standard library's
// generators do.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New constructs an empty index. It panics on a non-positive dimension
// because that is always a programming error.
func New(cfg Config) *Index {
	if cfg.Dim <= 0 {
		panic("ann: non-positive dimension")
	}
	if cfg.Tables <= 0 {
		cfg.Tables = DefaultTables
	}
	if cfg.Bits <= 0 {
		cfg.Bits = DefaultBits
	}
	if cfg.Bits > 32 {
		cfg.Bits = 32
	}
	ix := &Index{
		cfg:    cfg,
		hashes: cfg.Tables * cfg.Bits,
	}
	ix.words = (ix.hashes + 63) / 64
	// Rademacher ±1 hyperplanes: for sparse inputs they are as good as
	// Gaussian ones (Achlioptas 2003) and need one bit of entropy each.
	ix.proj = make([][]float32, cfg.Dim)
	state := splitmix64(uint64(cfg.Seed) ^ 0xd4735bf215d1e9c3)
	for f := 0; f < cfg.Dim; f++ {
		row := make([]float32, ix.hashes)
		for h := 0; h < ix.hashes; h += 64 {
			state = splitmix64(state)
			word := state
			for b := 0; b < 64 && h+b < ix.hashes; b++ {
				if word&(1<<uint(b)) != 0 {
					row[h+b] = 1
				} else {
					row[h+b] = -1
				}
			}
		}
		ix.proj[f] = row
	}
	ix.tables = make([]map[uint32][]int32, cfg.Tables)
	for t := range ix.tables {
		ix.tables[t] = make(map[uint32][]int32)
	}
	return ix
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.n }

// sketchInto projects v against every hyperplane (into acc, caller-owned
// scratch) and packs the sign bits into dst. Ties (projection exactly 0,
// common for empty vectors) count as sign bit 0.
func (ix *Index) sketchInto(v *textproc.SparseVector, acc []float32, dst []uint64) {
	for i := range acc {
		acc[i] = 0
	}
	for i, f := range v.Idx {
		val := v.Val[i]
		row := ix.proj[f]
		for h, c := range row {
			acc[h] += val * c
		}
	}
	for w := 0; w < ix.words; w++ {
		dst[w] = 0
	}
	for h, a := range acc {
		if a > 0 {
			dst[h/64] |= 1 << uint(h%64)
		}
	}
}

// bandKey extracts table t's bucket key from a packed sketch.
func (ix *Index) bandKey(sk []uint64, t int) uint32 {
	lo := t * ix.cfg.Bits
	word, off := lo/64, uint(lo%64)
	v := sk[word] >> off
	if off+uint(ix.cfg.Bits) > 64 && word+1 < len(sk) {
		v |= sk[word+1] << (64 - off)
	}
	return uint32(v & (1<<uint(ix.cfg.Bits) - 1))
}

// Add indexes the vectors, assigning them the next consecutive ids.
// Sketching fans out over cfg.Workers; bucket insertion happens in id
// order, so the index contents are identical at every worker count.
// Chunked calls let ingestion drop each vector batch after indexing.
func (ix *Index) Add(vecs []*textproc.SparseVector) {
	if len(vecs) == 0 {
		return
	}
	base := ix.n
	off := len(ix.sketches)
	ix.sketches = append(ix.sketches, make([]uint64, len(vecs)*ix.words)...)
	par.Chunks(ix.cfg.Workers, len(vecs), func(lo, hi int) {
		acc := make([]float32, ix.hashes)
		for i := lo; i < hi; i++ {
			dst := ix.sketches[off+i*ix.words : off+(i+1)*ix.words]
			ix.sketchInto(vecs[i], acc, dst)
		}
	})
	for i := range vecs {
		sk := ix.sketches[off+i*ix.words : off+(i+1)*ix.words]
		id := int32(base + i)
		for t := 0; t < ix.cfg.Tables; t++ {
			key := ix.bandKey(sk, t)
			ix.tables[t][key] = append(ix.tables[t][key], id)
		}
	}
	ix.n += len(vecs)
}

// hamCand is one entry of the bounded Hamming selection heap.
type hamCand struct {
	dist int32
	id   int32
}

// worse reports whether a ranks strictly worse than b for the shortlist
// (greater Hamming distance; ties broken toward the larger id, so the
// kept set is exactly the smallest (dist, id) pairs — deterministic).
func (a hamCand) worse(b hamCand) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.id > b.id
}

// Candidates returns the ids of an approximate-neighbour shortlist for q
// of at most `target` + banding-collision size, in ascending id order.
// The shortlist is the union of the query's band buckets (capped at
// 4*target, tables in order, each bucket in id order) topped up to
// `target` ids by full-sketch Hamming distance when the buckets alone
// fall short. A target >= Len() returns every id (the caller should
// prefer its exact path then).
func (ix *Index) Candidates(q *textproc.SparseVector, target int) []int32 {
	if target <= 0 {
		target = 1
	}
	if target >= ix.n {
		out := make([]int32, ix.n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	if len(ix.visited) < ix.n {
		ix.visited = append(ix.visited, make([]int32, ix.n-len(ix.visited))...)
	}
	ix.epoch++
	epoch := ix.epoch

	acc := make([]float32, ix.hashes)
	qsk := make([]uint64, ix.words)
	ix.sketchInto(q, acc, qsk)

	// Phase 1: banding buckets. The cap keeps a flood of near-duplicate
	// band collisions (which are genuinely similar documents) from
	// turning the rerank back into a full scan.
	bucketCap := 4 * target
	out := make([]int32, 0, bucketCap)
gather:
	for t := 0; t < ix.cfg.Tables; t++ {
		for _, id := range ix.tables[t][ix.bandKey(qsk, t)] {
			if ix.visited[id] == epoch {
				continue
			}
			ix.visited[id] = epoch
			out = append(out, id)
			if len(out) >= bucketCap {
				break gather
			}
		}
	}

	// Phase 2: Hamming top-up. A bounded max-heap over (distance, id)
	// keeps the smallest `need` pairs; the scan is two XOR+popcounts per
	// document.
	if need := target - len(out); need > 0 {
		h := ix.heap[:0]
		for id := 0; id < ix.n; id++ {
			if ix.visited[id] == epoch {
				continue
			}
			sk := ix.sketches[id*ix.words : (id+1)*ix.words]
			d := int32(0)
			for w := 0; w < ix.words; w++ {
				d += int32(bits.OnesCount64(sk[w] ^ qsk[w]))
			}
			c := hamCand{dist: d, id: int32(id)}
			if len(h) < need {
				h = append(h, c)
				siftUp(h, len(h)-1)
				continue
			}
			if c.worse(h[0]) {
				continue
			}
			h[0] = c
			siftDown(h, 0)
		}
		ix.heap = h
		for _, c := range h {
			out = append(out, c.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// siftUp/siftDown maintain a max-heap under hamCand.worse: the root is
// the worst kept candidate, i.e. the next one to be displaced.
func siftUp(h []hamCand, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].worse(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []hamCand, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h[l].worse(h[worst]) {
			worst = l
		}
		if r < n && h[r].worse(h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Stats summarizes the index for diagnostics and tests.
type Stats struct {
	Docs, Tables, Bits int
	SketchBytes        int // bytes spent on packed sketches
	Buckets            int // non-empty buckets across all tables
}

// Stats returns the current index statistics.
func (ix *Index) Stats() Stats {
	s := Stats{
		Docs:        ix.n,
		Tables:      ix.cfg.Tables,
		Bits:        ix.cfg.Bits,
		SketchBytes: len(ix.sketches) * 8,
	}
	for _, t := range ix.tables {
		s.Buckets += len(t)
	}
	return s
}

// String implements fmt.Stringer for log lines.
func (ix *Index) String() string {
	return fmt.Sprintf("ann.Index{docs=%d tables=%d bits=%d}", ix.n, ix.cfg.Tables, ix.cfg.Bits)
}
