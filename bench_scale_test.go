// Out-of-core scale benchmarks: the 100x-scale corpus (Youtube grown to
// 158,600 train / 12,000 validation documents) driven through the three
// memory-bounded subsystems this repo grew for million-document corpora:
//
//   - KATE retrieval: exact cosine scan vs the LSH shortlist with exact
//     re-ranking (ns/query plus recall@10 of the ANN path against the
//     exact top-10);
//   - corpus ingestion: materialize-then-featurize vs the two-pass
//     chunked StreamFeatures over a JSONL split (peak heap MB);
//   - the vote matrix: fully resident dense columns vs the
//     capacity-capped spill mode backed by an unlinked temp file
//     (peak heap MB plus spill counts).
//
// `make bench-scale` records all of it in BENCH_scale.json (standard Go
// benchmark text). Two tests run on every `go test`: TestScaleSmoke
// asserts the ANN and spill paths actually execute and that spill mode
// stays bit-identical end to end, and TestScaleFloors holds the
// committed BENCH_scale.json to the retrieval acceptance floors.
package datasculpt_test

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"datasculpt"
	"datasculpt/internal/ann"
	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/prompt"
	"datasculpt/internal/textproc"
)

// scaleFactor grows every Youtube split 100x: large enough that the
// exact KATE scan, full materialization, and the dense vote matrix all
// hurt, small enough to benchmark in minutes.
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

// peakHeapMB runs f and returns the peak live heap (MB above the
// post-GC baseline) observed by a background sampler while it ran — a
// coarse but honest proxy for the RSS the operation adds. The GC is
// tightened while f runs so HeapAlloc tracks live memory instead of
// floating garbage (the retained 100x corpus would otherwise push the
// GC target high enough to drown the signal).
func peakHeapMB(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak {
					peak = s.HeapAlloc
				}
			}
		}
	}()
	f()
	close(stop)
	<-done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	if peak < base {
		return 0
	}
	return float64(peak-base) / (1 << 20)
}

// scaleTrainJSONL writes the 100x train split as a JSONL file once per
// process and returns its path.
func scaleTrainJSONL(b *testing.B) string {
	b.Helper()
	d, _ := scaleCorpus(b)
	path := filepath.Join(os.TempDir(), "datasculpt-bench-scale-train.jsonl")
	if _, err := os.Stat(path); err == nil {
		return path
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	werr := dataset.WriteSplitJSONL(f, d.Train)
	cerr := f.Close()
	if werr != nil {
		b.Fatal(werr)
	}
	if cerr != nil {
		b.Fatal(cerr)
	}
	return path
}

// BenchmarkScaleIngestMaterialized is the legacy ingestion shape: drain
// the whole split into memory, fit, then hold every feature vector at
// once. Peak heap grows linearly with the corpus.
func BenchmarkScaleIngestMaterialized(b *testing.B) {
	d, _ := scaleCorpus(b)
	path := scaleTrainJSONL(b)
	b.ResetTimer()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = peakHeapMB(func() {
			r, err := dataset.OpenJSONL(path, d.Task)
			if err != nil {
				b.Fatal(err)
			}
			var exs []*dataset.Example
			if err := dataset.ReadChunks(r, 1024, func(chunk []*dataset.Example) error {
				exs = append(exs, chunk...)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			r.Close()
			feat := textproc.NewFeaturizer(8192)
			if err := feat.Fit(dataset.FeatureCorpus(exs)); err != nil {
				b.Fatal(err)
			}
			vecs := feat.TransformAll(dataset.FeatureCorpus(exs))
			if len(vecs) != len(d.Train) {
				b.Fatalf("featurized %d docs, want %d", len(vecs), len(d.Train))
			}
		})
	}
	b.ReportMetric(peak, "peak-MB")
}

// BenchmarkScaleIngestStreamed featurizes the same split via the
// two-pass chunked StreamFeatures: peak memory is one chunk of examples
// plus its vectors, regardless of corpus size.
func BenchmarkScaleIngestStreamed(b *testing.B) {
	d, _ := scaleCorpus(b)
	path := scaleTrainJSONL(b)
	b.ResetTimer()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = peakHeapMB(func() {
			feat := textproc.NewFeaturizer(8192)
			total := 0
			err := dataset.StreamFeatures(
				func() (dataset.Reader, error) { return dataset.OpenJSONL(path, d.Task) },
				feat, 1024,
				func(start int, vecs []*textproc.SparseVector) error {
					total += len(vecs)
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			if total != len(d.Train) {
				b.Fatalf("streamed %d docs, want %d", total, len(d.Train))
			}
		})
	}
	b.ReportMetric(peak, "peak-MB")
}

// scaleKeywordLFs derives m keyword LFs from the split's most frequent
// tokens, so the benchmark vote matrix has realistic per-column
// coverage.
func scaleKeywordLFs(tb testing.TB, split []*dataset.Example, m, numClasses int) []lf.LabelFunction {
	tb.Helper()
	sample := split
	if len(sample) > 20000 {
		sample = sample[:20000]
	}
	df := make(map[string]int)
	for _, e := range sample {
		e.EnsureTokens()
		seen := make(map[string]bool, len(e.Tokens))
		for _, tok := range e.Tokens {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	toks := make([]string, 0, len(df))
	for tok := range df {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(i, j int) bool {
		if df[toks[i]] != df[toks[j]] {
			return df[toks[i]] > df[toks[j]]
		}
		return toks[i] < toks[j]
	})
	lfs := make([]lf.LabelFunction, 0, m)
	for _, tok := range toks {
		l, err := lf.NewKeywordLF(tok, len(lfs)%numClasses)
		if err != nil {
			continue
		}
		lfs = append(lfs, l)
		if len(lfs) == m {
			break
		}
	}
	if len(lfs) < m {
		tb.Fatalf("only %d keyword LFs derivable, want %d", len(lfs), m)
	}
	return lfs
}

const scaleLFCount = 120

// voteMatrixBench builds a 158,600 x 120 vote matrix and runs the full
// evaluation surface over it (stats, majority vote, coverage). budget 0
// is the fully resident dense-column matrix; a positive budget caps the
// resident sparse bytes and spills cold columns to the temp file.
func voteMatrixBench(b *testing.B, budget int64) {
	d, _ := scaleCorpus(b)
	ix := lf.NewIndex(d.Train)
	lfs := scaleKeywordLFs(b, d.Train, scaleLFCount, d.NumClasses())
	gold := dataset.Labels(d.Train)
	b.ResetTimer()
	var peak float64
	var spills int
	for i := 0; i < b.N; i++ {
		peak = peakHeapMB(func() {
			vm := lf.NewVoteMatrix(ix.Size())
			if budget > 0 {
				if err := vm.EnableSpill(budget, "", nil); err != nil {
					b.Fatal(err)
				}
			}
			vm.AppendLFs(ix, lfs, 0)
			vm.ComputeStats(gold, 0)
			vm.MajorityVotes(d.NumClasses())
			if budget > 0 {
				spills = vm.SpillStats().Spills
				if spills == 0 {
					b.Fatal("spill budget never exceeded; shrink the budget")
				}
			}
			vm.Close()
		})
	}
	b.ReportMetric(peak, "peak-MB")
	if budget > 0 {
		b.ReportMetric(float64(spills), "spills")
	}
}

func BenchmarkScaleVoteMatrixResident(b *testing.B) { voteMatrixBench(b, 0) }

func BenchmarkScaleVoteMatrixSpill(b *testing.B) { voteMatrixBench(b, 1<<20) }

// TestScaleSmoke proves the ANN retrieval path and the vote-matrix
// spill path both actually execute (counters move, evictions happen)
// and that a spill-enabled end-to-end pipeline run is bit-identical to
// the fully resident run.
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

	// Spill path: a 4KB budget over ~20 real-coverage columns forces
	// evictions; every read must still match the resident oracle.
	ix := lf.NewIndex(d.Train)
	lfs := scaleKeywordLFs(t, d.Train, 20, d.NumClasses())
	vm := lf.NewVoteMatrix(ix.Size())
	if err := vm.EnableSpill(4<<10, "", reg); err != nil {
		t.Fatal(err)
	}
	vm.AppendLFs(ix, lfs, 0)
	oracle := lf.BuildVoteMatrixParallel(ix, lfs, 0)
	for i := 0; i < vm.NumExamples(); i += 7 {
		for j := 0; j < vm.NumLFs(); j++ {
			if got, want := vm.Vote(i, j), oracle.Vote(i, j); got != want {
				t.Fatalf("spilled Vote(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	gotMaj, wantMaj := vm.MajorityVotes(d.NumClasses()), oracle.MajorityVotes(d.NumClasses())
	for i := range wantMaj {
		if gotMaj[i] != wantMaj[i] {
			t.Fatalf("spilled MajorityVotes[%d] = %d, want %d", i, gotMaj[i], wantMaj[i])
		}
	}
	if st := vm.SpillStats(); st.Spills == 0 {
		t.Fatalf("spill budget never exceeded: %+v", st)
	}
	vm.Close()

	// End to end: the spill-enabled pipeline run must reproduce the
	// resident run bit for bit (spilling changes storage, not votes).
	run := func(spillMB int) *datasculpt.Result {
		cfg := datasculpt.DefaultConfig(datasculpt.VariantKATE)
		cfg.Iterations = 5
		cfg.Seed = 11
		cfg.VoteSpillMB = spillMB
		res, err := datasculpt.Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resident, spilled := run(0), run(1)
	if resident.NumLFs != spilled.NumLFs ||
		resident.LFCoverage != spilled.LFCoverage ||
		resident.EndMetric != spilled.EndMetric {
		t.Fatalf("spill-enabled run diverged: resident #LF=%d cov=%v end=%v, spilled #LF=%d cov=%v end=%v",
			resident.NumLFs, resident.LFCoverage, resident.EndMetric,
			spilled.NumLFs, spilled.LFCoverage, spilled.EndMetric)
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
		"BenchmarkScaleIngestMaterialized peak-MB",
		"BenchmarkScaleIngestStreamed peak-MB",
		"BenchmarkScaleVoteMatrixResident peak-MB",
		"BenchmarkScaleVoteMatrixSpill peak-MB",
		"BenchmarkScaleVoteMatrixSpill spills",
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
