package prompt

import (
	"sort"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// referenceSelect is the pre-ANN KATE scan, kept verbatim as the oracle:
// full qv.Cosine sweep, sim-descending/idx-ascending sort, reversed output.
func referenceSelect(k *KATE, query *dataset.Example, n int) []Demonstration {
	qv := k.feat.Transform(query.FeatureTokens())
	type scored struct {
		idx int
		sim float64
	}
	scores := make([]scored, len(k.vecs))
	for i, v := range k.vecs {
		scores[i] = scored{i, qv.Cosine(v)}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].sim != scores[b].sim {
			return scores[a].sim > scores[b].sim
		}
		return scores[a].idx < scores[b].idx
	})
	if n > len(scores) {
		n = len(scores)
	}
	out := make([]Demonstration, n)
	for i := 0; i < n; i++ {
		out[n-1-i] = k.demos[scores[i].idx]
	}
	return out
}

func fittedYoutube(t *testing.T) (*dataset.Dataset, *textproc.Featurizer) {
	t.Helper()
	d := loadYoutube(t)
	feat := textproc.NewFeaturizer(4096)
	if err := feat.Fit(dataset.TokenCorpus(d.Train)); err != nil {
		t.Fatal(err)
	}
	return d, feat
}

// TestKATEExactPathBitIdentical: the cached-norm scoring must reproduce
// the historical Cosine scan bit for bit on every query.
func TestKATEExactPathBitIdentical(t *testing.T) {
	d, feat := fittedYoutube(t)
	kate, err := NewKATEWithOptions(d, feat, KATEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kate.ANNEnabled() {
		t.Fatalf("ANN enabled on a %d-doc pool below the default threshold", len(d.Valid))
	}
	for _, q := range d.Train[:40] {
		got := kate.Select(q, 10)
		want := referenceSelect(kate, q, 10)
		if len(got) != len(want) {
			t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Text != want[i].Text || got[i].Label != want[i].Label {
				t.Fatalf("query %q demo %d differs from reference scan", q.Text, i)
			}
		}
	}
}

// TestKATEANNMatchesExactWhenShortlistCovers: with a forced-low threshold
// the ANN path must return the same demonstrations as the exact scan
// whenever the shortlist contains the true top-n (a generous multiplier
// on a small pool guarantees full coverage).
func TestKATEANNMatchesExactWhenShortlistCovers(t *testing.T) {
	d, feat := fittedYoutube(t)
	exact, err := NewKATEWithOptions(d, feat, KATEOptions{ANNThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	annSel, err := NewKATEWithOptions(d, feat, KATEOptions{
		ANNThreshold:        1,
		CandidateMultiplier: 64,
		Seed:                11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !annSel.ANNEnabled() {
		t.Fatal("threshold 1 did not enable ANN")
	}
	agree := 0
	for _, q := range d.Train[:40] {
		want := exact.Select(q, 5)
		got := annSel.Select(q, 5)
		same := len(got) == len(want)
		if same {
			for i := range got {
				if got[i].Text != want[i].Text {
					same = false
					break
				}
			}
		}
		if same {
			agree++
		}
	}
	// a 64x multiplier on a ~120-doc pool shortlists everything, so the
	// two paths must agree on every query
	if agree != 40 {
		t.Fatalf("ANN path agreed with exact on %d/40 queries, want 40", agree)
	}
}

// TestKATEThresholdGate: negative threshold always disables ANN; a pool
// below the threshold keeps the exact path; metrics record which path ran.
func TestKATEThresholdGate(t *testing.T) {
	d, feat := fittedYoutube(t)
	reg := obs.NewRegistry()
	off, err := NewKATEWithOptions(d, feat, KATEOptions{ANNThreshold: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if off.ANNEnabled() {
		t.Error("negative threshold still built an index")
	}
	off.Select(d.Train[0], 5)
	if got := reg.CounterValue("kate_exact_queries_total"); got != 1 {
		t.Errorf("kate_exact_queries_total = %v, want 1", got)
	}
	if got := reg.CounterValue("kate_ann_queries_total"); got != 0 {
		t.Errorf("kate_ann_queries_total = %v, want 0", got)
	}

	reg2 := obs.NewRegistry()
	on, err := NewKATEWithOptions(d, feat, KATEOptions{ANNThreshold: 1, CandidateMultiplier: 1, Seed: 3, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if !on.ANNEnabled() {
		t.Fatal("threshold 1 did not build an index")
	}
	on.Select(d.Train[0], 5)
	ann := reg2.CounterValue("kate_ann_queries_total")
	exact := reg2.CounterValue("kate_exact_queries_total")
	if ann+exact != 1 {
		t.Errorf("query counted %v times across paths, want exactly once", ann+exact)
	}
}

// TestKATESelectAllocs is the satellite's AllocsPerRun gate: steady-state
// Select must not reallocate the scoring buffer or re-derive stored
// norms. The remaining allocations are the query transform and the
// returned demonstration slice.
func TestKATESelectAllocs(t *testing.T) {
	d, feat := fittedYoutube(t)
	kate, err := NewKATEWithOptions(d, feat, KATEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := d.Train[:8]
	for _, q := range queries {
		q.FeatureTokens() // warm token caches
		kate.Select(q, 10)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		kate.Select(queries[i%len(queries)], 10)
		i++
	})
	// Transform allocates the query vector (~4: map, vector, idx, val)
	// and take allocates the output slice; the scan itself must be free.
	if allocs > 12 {
		t.Errorf("Select allocates %.1f objects/op, want <= 12", allocs)
	}
}

func BenchmarkKATESelectExact(b *testing.B) {
	d, err := dataset.Load("youtube", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	feat := textproc.NewFeaturizer(8192)
	if err := feat.Fit(dataset.TokenCorpus(d.Train)); err != nil {
		b.Fatal(err)
	}
	kate, err := NewKATEWithOptions(d, feat, KATEOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dataset.PreTokenize(d.Train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kate.Select(d.Train[i%len(d.Train)], 10)
	}
}
