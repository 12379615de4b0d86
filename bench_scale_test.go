// Out-of-core scale benchmarks: the 100x-scale corpus (Youtube grown to
// 158,600 train / 12,000 validation documents) driven through KATE
// retrieval, the memory-bounded subsystem this repo grew for
// million-document corpora: the exact cosine scan vs the LSH shortlist
// with exact re-ranking (ns/query plus recall@10 of the ANN path against
// the exact top-10).
//
// `make bench-scale` records it in BENCH_scale.json (standard Go
// benchmark text). Two tests run on every `go test`: TestScaleSmoke
// asserts the ANN path actually executes, and TestScaleFloors holds the
// committed BENCH_scale.json to the retrieval acceptance floors.
package datasculpt_test

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"datasculpt"
	"datasculpt/internal/ann"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/prompt"
	"datasculpt/internal/textproc"
)

// scaleFactor grows every Youtube split 100x: large enough that the
// exact KATE scan hurts, small enough to benchmark in minutes.
const scaleFactor = 100

const scaleShots = 10

var (
	scaleOnce sync.Once
	scaleDS   *datasculpt.Dataset
	scaleFeat *textproc.Featurizer
	scaleErr  error
)

// scaleCorpus generates the 100x corpus and fits the shared featurizer
// once; generation and fitting are excluded from every timing below.
func scaleCorpus(b *testing.B) (*datasculpt.Dataset, *textproc.Featurizer) {
	b.Helper()
	scaleOnce.Do(func() {
		scaleDS, scaleErr = datasculpt.LoadDataset("youtube", 7013, scaleFactor)
		if scaleErr != nil {
			return
		}
		scaleFeat = textproc.NewFeaturizer(8192)
		scaleErr = scaleFeat.Fit(dataset.FeatureCorpus(scaleDS.Train))
	})
	if scaleErr != nil {
		b.Fatal(scaleErr)
	}
	return scaleDS, scaleFeat
}

// scaleQueries picks a deterministic spread of train documents as KATE
// queries.
func scaleQueries(d *datasculpt.Dataset, n int) []*dataset.Example {
	out := make([]*dataset.Example, 0, n)
	stride := len(d.Train) / n
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(d.Train) && len(out) < n; i += stride {
		out = append(out, d.Train[i])
	}
	return out
}

const scaleQueryCount = 200

// kateQueryBench drives scaleQueryCount Selects per iteration through a
// KATE built with the given threshold (-1 forces the exact scan, 1
// forces the LSH path) and reports per-query latency.
func kateQueryBench(b *testing.B, threshold int) {
	d, feat := scaleCorpus(b)
	sel, err := prompt.NewKATEWithOptions(d, feat, prompt.KATEOptions{
		ANNThreshold: threshold,
		Seed:         42,
	})
	if err != nil {
		b.Fatal(err)
	}
	wantANN := threshold > 0
	if sel.ANNEnabled() != wantANN {
		b.Fatalf("ANNEnabled() = %v, want %v", sel.ANNEnabled(), wantANN)
	}
	queries := scaleQueries(d, scaleQueryCount)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			sel.Select(q, scaleShots)
		}
	}
	b.StopTimer()
	perQuery := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(queries))
	b.ReportMetric(perQuery, "ns/query")
	if wantANN {
		b.ReportMetric(scaleRecallAt10(b, d, feat, queries), "recall@10")
	}
}

func BenchmarkScaleKATEExact(b *testing.B) { kateQueryBench(b, -1) }

func BenchmarkScaleKATEANN(b *testing.B) { kateQueryBench(b, 1) }

// scaleRecallAt10 measures how much of the exact top-10 the LSH
// shortlist retains, using an ann.Index configured identically to the
// one inside BenchmarkScaleKATEANN's selector (same seed, so the
// deterministic projections are the same bits).
func scaleRecallAt10(b *testing.B, d *datasculpt.Dataset, feat *textproc.Featurizer, queries []*dataset.Example) float64 {
	b.Helper()
	vecs := make([]*textproc.SparseVector, len(d.Valid))
	norms := make([]float64, len(d.Valid))
	for i, e := range d.Valid {
		vecs[i] = feat.Transform(e.FeatureTokens())
		norms[i] = vecs[i].Norm()
	}
	idx := ann.New(ann.Config{Dim: feat.Dim, Seed: 42})
	idx.Add(vecs)

	topK := func(qv *textproc.SparseVector, qn float64, cands []int32) []int32 {
		type scored struct {
			id  int32
			sim float64
		}
		sc := make([]scored, 0, len(cands))
		for _, id := range cands {
			var sim float64
			if vn := norms[id]; qn != 0 && vn != 0 {
				sim = qv.Dot(vecs[id]) / (qn * vn)
			}
			sc = append(sc, scored{id, sim})
		}
		sort.Slice(sc, func(i, j int) bool {
			if sc[i].sim != sc[j].sim {
				return sc[i].sim > sc[j].sim
			}
			return sc[i].id < sc[j].id
		})
		n := scaleShots
		if n > len(sc) {
			n = len(sc)
		}
		out := make([]int32, n)
		for i := 0; i < n; i++ {
			out[i] = sc[i].id
		}
		return out
	}
	all := make([]int32, len(vecs))
	for i := range all {
		all[i] = int32(i)
	}
	var hit, want int
	for _, q := range queries {
		qv := feat.Transform(q.FeatureTokens())
		qn := qv.Norm()
		exact := topK(qv, qn, all)
		approx := topK(qv, qn, idx.Candidates(qv, prompt.DefaultANNMultiplier*scaleShots))
		in := make(map[int32]bool, len(approx))
		for _, id := range approx {
			in[id] = true
		}
		for _, id := range exact {
			want++
			if in[id] {
				hit++
			}
		}
	}
	return float64(hit) / float64(want)
}

// TestScaleSmoke proves the ANN retrieval path actually executes: every
// Select returns its demos and the ANN query counter moves.
func TestScaleSmoke(t *testing.T) {
	d, err := datasculpt.LoadDataset("youtube", 11, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	feat := textproc.NewFeaturizer(8192)
	if err := feat.Fit(dataset.FeatureCorpus(d.Train)); err != nil {
		t.Fatal(err)
	}

	// ANN path: threshold 1 forces the index; multiplier 2 keeps the
	// shortlist smaller than the 60-doc pool so Select really goes
	// through it.
	reg := obs.NewRegistry()
	sel, err := prompt.NewKATEWithOptions(d, feat, prompt.KATEOptions{
		ANNThreshold:        1,
		CandidateMultiplier: 2,
		Seed:                42,
		Metrics:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.ANNEnabled() {
		t.Fatal("ANN index not built at threshold 1")
	}
	for _, q := range d.Train[:20] {
		if got := sel.Select(q, scaleShots); len(got) != scaleShots {
			t.Fatalf("Select returned %d demos, want %d", len(got), scaleShots)
		}
	}
	if n := reg.CounterValue("kate_ann_queries_total"); n == 0 {
		t.Fatal("no Select went through the ANN shortlist")
	}
}

// scaleSpeedupFloor and scaleRecallFloor are the acceptance floors of the
// ANN retrieval path at 100x scale.
const (
	scaleSpeedupFloor = 5.0
	scaleRecallFloor  = 0.9
)

// TestScaleFloors reads the committed BENCH_scale.json (Go benchmark
// text, as `make bench-scale` writes it) and fails if any scale metric
// is missing, if the LSH shortlist is less than scaleSpeedupFloor times
// faster per query than the exact scan, or if its recall@10 falls below
// scaleRecallFloor.
func TestScaleFloors(t *testing.T) {
	data, err := os.ReadFile("BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64) // "<benchmark> <unit>" -> value
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // -GOMAXPROCS suffix
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				got[name+" "+f[i+1]] = v
			}
		}
	}
	for _, key := range []string{
		"BenchmarkScaleKATEExact ns/query",
		"BenchmarkScaleKATEANN ns/query",
		"BenchmarkScaleKATEANN recall@10",
	} {
		if _, ok := got[key]; !ok {
			t.Fatalf("BENCH_scale.json has no %s", key)
		}
	}
	if speedup := got["BenchmarkScaleKATEExact ns/query"] / got["BenchmarkScaleKATEANN ns/query"]; speedup < scaleSpeedupFloor {
		t.Errorf("KATE ANN speedup %.2fx is below the %.0fx floor", speedup, scaleSpeedupFloor)
	}
	if recall := got["BenchmarkScaleKATEANN recall@10"]; recall < scaleRecallFloor {
		t.Errorf("KATE ANN recall@10 %.3f is below the %.2f floor", recall, scaleRecallFloor)
	}
}
