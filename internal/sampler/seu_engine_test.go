package sampler

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// pickSequence drains n SEU selections from a fresh state, marking each
// pick used — the selection trace whose bit-identity the engine must
// preserve across worker counts and cache states.
func pickSequence(t *testing.T, n, workers int, seed int64, fresh bool) []int {
	t.Helper()
	s := newState(t)
	s.Workers = workers
	rng := rand.New(rand.NewSource(seed))
	seu := NewSEU()
	var picks []int
	for i := 0; i < n; i++ {
		if fresh {
			seu = NewSEU() // cold engine every call: no memo, no keyword cache
		}
		id := seu.Next(s, rng)
		if id < 0 {
			break
		}
		if s.Used[id] {
			t.Fatalf("pick %d selected used instance %d", i, id)
		}
		s.Used[id] = true
		picks = append(picks, id)
	}
	return picks
}

// TestSEUParallelBitIdentical: the scored selection trace must not
// depend on the worker count (parallel sections write per-index state
// only; all float reductions replay the sequential order).
func TestSEUParallelBitIdentical(t *testing.T) {
	want := pickSequence(t, 25, 1, 42, false)
	for _, workers := range []int{2, 4, 7} {
		if got := pickSequence(t, 25, workers, 42, false); !equalInts(got, want) {
			t.Fatalf("workers=%d picked %v, sequential picked %v", workers, got, want)
		}
	}
}

// TestSEUCachedMatchesUncached: serving scores from the run-lifetime
// memo must select exactly the instances a cold engine per call would.
func TestSEUCachedMatchesUncached(t *testing.T) {
	cached := pickSequence(t, 25, 1, 7, false)
	uncached := pickSequence(t, 25, 1, 7, true)
	if !equalInts(cached, uncached) {
		t.Fatalf("cached picks %v, uncached picks %v", cached, uncached)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSEUEngineMatchesNaiveScorerProperty: on varied generated splits,
// every memoized engine score must equal the naive from-scratch scorer
// bit for bit, both on first computation and when served from cache.
// The fixture holds documents with more distinct content unigrams than
// MaxKeywords (where the engine's bounded enumeration stops early) and
// short ones whose candidates run into bigrams and trigrams.
func TestSEUEngineMatchesNaiveScorerProperty(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		scale float64
	}{
		{"youtube", 3, 0.1},
		{"youtube", 91, 0.15},
		{"sms", 17, 0.05},
		{"yelp", 5, 0.02},
	}
	var long, short int
	for _, tc := range cases {
		d, err := dataset.Load(tc.name, tc.seed, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "youtube" {
			d.Train = append(d.Train, crafted(d.Train)...)
		}
		s := &State{
			Dataset:    d,
			Used:       make([]bool, len(d.Train)),
			TrainIndex: lf.NewIndex(d.Train),
			ValidIndex: lf.NewIndex(d.Valid),
			Workers:    3,
		}
		seu := NewSEU()
		var ids []int
		for i := 0; i < len(d.Train); i++ {
			if i%7 == 0 || i >= len(d.Train)-len(craftedTexts)-1 {
				ids = append(ids, i)
			}
		}
		eng := seu.engine(s)
		eng.scoreBatch(s, ids)
		for _, i := range ids {
			want := seu.instanceScore(s, d.Train[i])
			if got := eng.scores[i]; got != want {
				t.Fatalf("%s/%d: engine score %v != naive score %v for instance %d",
					tc.name, tc.seed, got, want, i)
			}
			switch all := textproc.CandidateKeywords(d.Train[i].Tokens, 0); {
			case len(all) > eng.maxK && !strings.Contains(all[eng.maxK], " "):
				long++
			case len(all) > 0 && len(all) <= eng.maxK && strings.Count(all[len(all)-1], " ") == 2:
				short++
			}
		}
		// A second batch over the same ids is pure cache and must not
		// perturb a single score.
		before := append([]float64(nil), eng.scores...)
		eng.scoreBatch(s, ids)
		for _, i := range ids {
			if eng.scores[i] != before[i] {
				t.Fatalf("%s/%d: cached rescoring changed instance %d", tc.name, tc.seed, i)
			}
		}
	}
	if long == 0 || short == 0 {
		t.Fatalf("fixture covers %d documents with more than MaxKeywords content unigrams and %d short ones ending in trigrams", long, short)
	}
}

// craftedTexts are short documents whose candidates end in trigrams.
var craftedTexts = []string{
	"cash of prize",
	"song of the year by the band",
	"check out my channel for free music",
}

// crafted appends the short documents plus one long document made of
// every train text, so that one instance has far more distinct content
// unigrams than MaxKeywords.
func crafted(train []*dataset.Example) []*dataset.Example {
	var all []string
	for _, e := range train {
		all = append(all, e.Text)
	}
	var out []*dataset.Example
	for _, text := range append(craftedTexts, strings.Join(all, " ")) {
		e := &dataset.Example{ID: len(train) + len(out), Text: text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		out = append(out, e)
	}
	return out
}

// TestSEUMemoizedNextAllocs is the regression gate on the cold path:
// once the pool has been scored, repeat Next calls must not allocate
// per-keyword or per-instance scoring state (the only allocation left
// is the unused-id list).
func TestSEUMemoizedNextAllocs(t *testing.T) {
	s := newState(t)
	seu := NewSEU()
	rng := rand.New(rand.NewSource(7))
	warm := func() bool {
		for _, sc := range seu.eng.scores {
			if math.IsNaN(sc) {
				return false
			}
		}
		return true
	}
	seu.Next(s, rng)
	for i := 0; i < 500 && !warm(); i++ {
		seu.Next(s, rng)
	}
	if !warm() {
		t.Fatal("pool never fully scored during warmup")
	}
	allocs := testing.AllocsPerRun(50, func() { seu.Next(s, rng) })
	if allocs > 4 {
		t.Errorf("memoized Next allocates %.1f objects per call, want <= 4", allocs)
	}
}

// TestSEUAllStopwordPoolFallsBackToRNG: when no candidate yields a
// scorable keyword (every score -Inf), SEU must make an explicit rng
// draw over the candidates like the other samplers — the old code
// silently returned the first shuffled id, which without a shuffle
// (pool <= Candidates) was always instance 0.
func TestSEUAllStopwordPoolFallsBackToRNG(t *testing.T) {
	mk := func(id int, text string, label int) *dataset.Example {
		e := &dataset.Example{ID: id, Text: text, Label: label, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		return e
	}
	var train []*dataset.Example
	for i := 0; i < 12; i++ {
		train = append(train, mk(i, "the of and to in is was", i%2))
	}
	valid := []*dataset.Example{mk(0, "the of and", 0), mk(1, "to in is", 1)}
	d := &dataset.Dataset{
		Name:         "stopwords",
		ClassNames:   []string{"neg", "pos"},
		DefaultClass: dataset.NoDefaultClass,
		TrainLabeled: true,
		Train:        train,
		Valid:        valid,
		Test:         valid,
	}
	newStop := func() *State {
		return &State{
			Dataset:    d,
			Used:       make([]bool, len(d.Train)),
			TrainIndex: lf.NewIndex(d.Train),
			ValidIndex: lf.NewIndex(d.Valid),
		}
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		s := newStop()
		a := NewSEU().Next(s, rand.New(rand.NewSource(seed)))
		b := NewSEU().Next(newStop(), rand.New(rand.NewSource(seed)))
		if a < 0 || a >= len(d.Train) {
			t.Fatalf("seed %d: fallback returned %d", seed, a)
		}
		if a != b {
			t.Fatalf("seed %d: fallback nondeterministic (%d vs %d)", seed, a, b)
		}
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Errorf("fallback returned the same instance for all 10 seeds (%v): not an rng draw", seen)
	}
}

// TestSEUMetrics: an instrumented State must account keyword-utility
// computations and score-memo traffic under sampler_seu_*.
func TestSEUMetrics(t *testing.T) {
	s := newState(t)
	s.Metrics = obs.NewRegistry()
	seu := NewSEU()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		seu.Next(s, rng) // nothing marked used: repeat calls hit the memo
	}
	if kw := s.Metrics.CounterValue("sampler_seu_keywords_scored_total"); kw == 0 {
		t.Error("no keyword utilities accounted")
	}
	misses := s.Metrics.CounterValue("sampler_seu_score_cache_misses_total")
	hits := s.Metrics.CounterValue("sampler_seu_score_cache_hits_total")
	if misses == 0 || hits == 0 {
		t.Errorf("cache accounting: hits=%v misses=%v, want both > 0", hits, misses)
	}
	if misses > float64(len(s.Dataset.Train)) {
		t.Errorf("%v misses for a %d-instance pool: instances scored more than once",
			misses, len(s.Dataset.Train))
	}
}

// TestSEUEngineRebuildsOnNewState: a Sampler value reused across runs
// must not leak one run's cache into the next (the indices' identity is
// the cache key).
func TestSEUEngineRebuildsOnNewState(t *testing.T) {
	seu := NewSEU()
	s1 := newState(t)
	rng := rand.New(rand.NewSource(3))
	seu.Next(s1, rng)
	eng1 := seu.eng
	seu.Next(s1, rng)
	if seu.eng != eng1 {
		t.Fatal("engine rebuilt for an unchanged state")
	}
	s2 := newState(t)
	seu.Next(s2, rng)
	if seu.eng == eng1 {
		t.Fatal("engine survived a state swap")
	}
}
