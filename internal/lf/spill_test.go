package lf

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"datasculpt/internal/obs"
)

// buildSpillPair evaluates the same LF batches into a plain matrix and a
// spilling one (budget small enough to force evictions) and returns both.
func buildSpillPair(t *testing.T, seed int64, budget int64, metrics *obs.Registry) (plain, spilled *VoteMatrix, ix *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"alpha", "beta", "gamma", "delta", "free", "cash",
		"prize", "song", "winner", "channel"}
	split := randomSplit(rng, vocab, 400)
	lfs := randomLFs(t, rng, vocab, 30)
	ix = NewIndex(split)

	plain = NewVoteMatrix(len(split))
	spilled = NewVoteMatrix(len(split))
	if err := spilled.EnableSpill(budget, t.TempDir(), metrics); err != nil {
		t.Fatal(err)
	}
	// append in uneven batches to exercise the incremental path
	for lo := 0; lo < len(lfs); {
		hi := lo + 1 + rng.Intn(7)
		if hi > len(lfs) {
			hi = len(lfs)
		}
		plain.AppendLFs(ix, lfs[lo:hi], 2)
		spilled.AppendLFs(ix, lfs[lo:hi], 2)
		lo = hi
	}
	return plain, spilled, ix
}

// TestSpillEquivalence: a spilling matrix under a budget tight enough to
// evict most columns must agree with the plain matrix on every accessor —
// votes, rows, the row view, columns, active lists, stats, majority
// votes.
func TestSpillEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		reg := obs.NewRegistry()
		plain, spilled, _ := buildSpillPair(t, seed, 512, reg)
		defer spilled.Close()

		if !spilled.Spilling() {
			t.Fatal("EnableSpill did not mark the matrix")
		}
		st := spilled.SpillStats()
		if st.Spills == 0 {
			t.Fatalf("seed %d: 512-byte budget produced no evictions (resident %d)", seed, st.ResidentBytes)
		}
		if reg.CounterValue("eval_votematrix_spill_columns_total") != float64(st.Spills) {
			t.Error("spill counter diverges from SpillStats")
		}

		if !matricesEqual(t, spilled, plain) {
			t.Fatalf("seed %d: spilled matrix diverges from plain", seed)
		}
		// random access across the two representations
		rng := rand.New(rand.NewSource(seed + 100))
		for k := 0; k < 500; k++ {
			i, j := rng.Intn(plain.NumExamples()), rng.Intn(plain.NumLFs())
			if plain.Vote(i, j) != spilled.Vote(i, j) {
				t.Fatalf("Vote(%d,%d) diverges", i, j)
			}
		}
		for i := 0; i < plain.NumExamples(); i += 17 {
			pr, sr := plain.Row(i, nil), spilled.Row(i, nil)
			for j := range pr {
				if pr[j] != sr[j] {
					t.Fatalf("Row(%d)[%d] diverges", i, j)
				}
			}
		}
		gold := make([]int, plain.NumExamples())
		rng2 := rand.New(rand.NewSource(seed))
		for i := range gold {
			gold[i] = rng2.Intn(3)
		}
		ps, ss := plain.ComputeStats(gold, 2), spilled.ComputeStats(gold, 2)
		if ps != ss {
			t.Fatalf("stats diverge: %+v vs %+v", ps, ss)
		}
		pm, sm := plain.MajorityVotes(3), spilled.MajorityVotes(3)
		for i := range pm {
			if pm[i] != sm[i] {
				t.Fatalf("MajorityVotes[%d] diverges: %d vs %d", i, pm[i], sm[i])
			}
		}
		// the row view of each matrix agrees with its own Vote, and the
		// two views are identical
		if !rowsMatchVote(plain) || !rowsMatchVote(spilled) {
			t.Fatalf("seed %d: Rows disagrees with Vote", seed)
		}
		pv, sv := plain.Rows(), spilled.Rows()
		for i := 0; i < plain.NumExamples(); i++ {
			pj, pvs := pv.Row(i)
			sj, svs := sv.Row(i)
			if !slices.Equal(pj, sj) || !slices.Equal(pvs, svs) {
				t.Fatalf("Rows().Row(%d) diverges", i)
			}
		}
		for j := 0; j < plain.NumLFs(); j++ {
			pa, pn := plain.LFAccuracy(j, gold)
			sa, sn := spilled.LFAccuracy(j, gold)
			if pa != sa || pn != sn {
				t.Fatalf("LFAccuracy(%d) diverges", j)
			}
			if plain.Coverage(j) != spilled.Coverage(j) {
				t.Fatalf("Coverage(%d) diverges", j)
			}
		}
	}
}

// TestSpillResidentBounded: after a full sweep the resident bytes never
// exceed budget plus one column (the pinned fault-in bound).
func TestSpillResidentBounded(t *testing.T) {
	const budget = 1024
	_, spilled, _ := buildSpillPair(t, 7, budget, nil)
	defer spilled.Close()
	var maxCol int64
	for j := 0; j < spilled.NumLFs(); j++ {
		if b := int64(spilled.activeLen(j)) * spillBytesPerVote; b > maxCol {
			maxCol = b
		}
	}
	// touch every column a few times in a hostile order
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 200; k++ {
		spilled.Active(rng.Intn(spilled.NumLFs()))
		if st := spilled.SpillStats(); st.ResidentBytes > budget+maxCol {
			t.Fatalf("resident %d exceeds budget %d + max column %d", st.ResidentBytes, budget, maxCol)
		}
	}
	if st := spilled.SpillStats(); st.Reloads == 0 {
		t.Fatal("no reloads despite a tight budget")
	}
}

// TestSpillConcurrentAccess runs concurrent readers over a spilling
// matrix under -race: fault-ins and evictions must not corrupt views.
func TestSpillConcurrentAccess(t *testing.T) {
	plain, spilled, _ := buildSpillPair(t, 5, 768, nil)
	defer spilled.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 300; k++ {
				j := rng.Intn(spilled.NumLFs())
				ids, votes := spilled.Active(j)
				wantIDs, wantVotes := plain.Active(j)
				if len(ids) != len(wantIDs) {
					t.Errorf("worker %d: Active(%d) length diverges", w, j)
					return
				}
				for u := range ids {
					if ids[u] != wantIDs[u] || votes[u] != wantVotes[u] {
						t.Errorf("worker %d: Active(%d)[%d] diverges", w, j, u)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEnableSpillValidation: rejects non-empty matrices and bad budgets.
func TestEnableSpillValidation(t *testing.T) {
	vm := NewVoteMatrix(10)
	if err := vm.EnableSpill(0, t.TempDir(), nil); err == nil {
		t.Error("zero budget accepted")
	}
	plain, _, ix := buildSpillPair(t, 11, 1<<20, nil)
	_ = ix
	if err := plain.EnableSpill(1<<20, t.TempDir(), nil); err == nil {
		t.Error("EnableSpill accepted a non-empty matrix")
	}
	// zero-value stats for a plain matrix
	if st := plain.SpillStats(); st != (SpillStats{}) {
		t.Errorf("plain matrix reports spill stats %+v", st)
	}
	if plain.Close() != nil {
		t.Error("Close on a plain matrix errored")
	}
}
