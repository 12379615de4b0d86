package labelmodel

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
)

// -update regenerates testdata/rowmodels.golden from the current models:
// go test ./internal/labelmodel/ -run RowModelsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/rowmodels.golden with current model outputs")

// bits renders a float exactly: the human-readable value for the reader,
// the IEEE-754 bit pattern for the comparison.
func bits(x float64) string { return fmt.Sprintf("%f/%016x", x, math.Float64bits(x)) }

// goldenSplit builds a seeded n-example split over k classes with its LF
// set: keyword LFs (unigram and bigram, one per class and one generic)
// plus a mixed-vote AnnotationLF. Every seventh example carries only a
// filler token and no annotation, so it is uncovered; every fifth has no
// gold label.
func goldenSplit(seed int64, n, k int) ([]*dataset.Example, []lf.LabelFunction) {
	rng := rand.New(rand.NewSource(seed))
	examples := make([]*dataset.Example, n)
	votes := make(map[*dataset.Example]int)
	for i := range examples {
		gold := rng.Intn(k)
		e := &dataset.Example{ID: i, Label: gold, E1Pos: -1, E2Pos: -1}
		if i%5 == 0 {
			e.Label = dataset.NoLabel
		}
		if i%7 == 0 {
			e.Tokens = []string{"filler"}
		} else {
			for t := 0; t < 6; t++ {
				w := rng.Intn(4 * k)
				if rng.Float64() < 0.5 {
					w = 4*gold + rng.Intn(4) // class-indicative words
				}
				e.Tokens = append(e.Tokens, fmt.Sprintf("w%d", w))
			}
			if rng.Float64() < 0.6 {
				v := gold
				if rng.Float64() < 0.3 {
					v = rng.Intn(k)
				}
				votes[e] = v
			}
		}
		e.Text = strings.Join(e.Tokens, " ")
		examples[i] = e
	}
	var lfs []lf.LabelFunction
	for c := 0; c < k; c++ {
		lfs = append(lfs,
			&lf.KeywordLF{Keyword: fmt.Sprintf("w%d", 4*c), Class: c},
			&lf.KeywordLF{Keyword: fmt.Sprintf("w%d", 4*c+1), Class: c},
			&lf.KeywordLF{Keyword: fmt.Sprintf("w%d w%d", 4*c+2, 4*c+3), Class: c})
	}
	lfs = append(lfs,
		&lf.KeywordLF{Keyword: "w1", Class: k - 1}, // a noisy cross-class LF
		&lf.AnnotationLF{LFName: "mixed", Votes: votes})
	return examples, lfs
}

func writeProba(buf *bytes.Buffer, name string, proba [][]float64) {
	fmt.Fprintf(buf, "%s proba:\n", name)
	for i, p := range proba {
		if p == nil {
			fmt.Fprintf(buf, "  %d: nil\n", i)
			continue
		}
		cells := make([]string, len(p))
		for c, x := range p {
			cells[c] = bits(x)
		}
		fmt.Fprintf(buf, "  %d: %s\n", i, strings.Join(cells, " "))
	}
}

// writeRowModels fits and pins every row-reading model over one split.
func writeRowModels(t *testing.T, buf *bytes.Buffer, vm *lf.VoteMatrix, ix *lf.Index, lfs []lf.LabelFunction, k int) {
	t.Helper()
	mv := NewMajorityVote()
	if err := mv.Fit(vm, k); err != nil {
		t.Fatal(err)
	}
	writeProba(buf, "majority-vote", mv.PredictProba(vm))

	if k == 2 {
		tr := NewTriplet()
		if err := tr.Fit(vm, k); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("triplet accuracies:\n")
		for j, a := range tr.Accuracies() {
			fmt.Fprintf(buf, "  %d: %s\n", j, bits(a))
		}
		writeProba(buf, "triplet", tr.PredictProba(vm))
	}

	ds := NewDawidSkene()
	if err := ds.Fit(vm, k); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("dawid-skene confusion:\n")
	for j, conf := range ds.Confusion() {
		for c, row := range conf {
			cells := make([]string, len(row))
			for v, x := range row {
				cells[v] = bits(x)
			}
			fmt.Fprintf(buf, "  %d/%d: %s\n", j, c, strings.Join(cells, " "))
		}
	}
	writeProba(buf, "dawid-skene", ds.PredictProba(vm))

	wv := NewWeightedVoteFromValidationIndexed(ix, lfs)
	if err := wv.Fit(vm, k); err != nil {
		t.Fatal(err)
	}
	writeProba(buf, "weighted-vote", wv.PredictProba(vm))

	buf.WriteString("analyze:\n")
	for _, s := range lf.Analyze(vm, lfs, dataset.Labels(ix.Split())) {
		fmt.Fprintf(buf, "  %s class=%d active=%d cov=%s overlap=%s conflict=%s correct=%d incorrect=%d acc=%s known=%v\n",
			s.Name, s.Class, s.Active, bits(s.Coverage), bits(s.Overlap), bits(s.Conflict),
			s.Correct, s.Incorrect, bits(s.Accuracy), s.AccuracyKnown)
	}
}

// TestRowModelsGolden pins, bit for bit, every label model that reads
// the vote matrix row by row (majority vote, triplet, Dawid-Skene,
// weighted vote) and lf.Analyze, over seeded binary and 4-class splits
// with uncovered rows and a mixed-vote annotation column. The spilled
// matrix must produce the same bytes as the resident one.
func TestRowModelsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		seed int64
		n, k int
	}{
		{"binary", 11, 90, 2},
		{"4-class", 12, 70, 4},
	} {
		examples, lfs := goldenSplit(tc.seed, tc.n, tc.k)
		ix := lf.NewIndex(examples)
		var resident bytes.Buffer
		fmt.Fprintf(&resident, "== %s n=%d lfs=%d\n", tc.name, tc.n, len(lfs))
		writeRowModels(t, &resident, lf.BuildVoteMatrix(ix, lfs), ix, lfs, tc.k)

		spilled := lf.NewVoteMatrix(ix.Size())
		if err := spilled.EnableSpill(64, t.TempDir(), nil); err != nil {
			t.Fatal(err)
		}
		spilled.AppendLFs(ix, lfs, 1)
		var fromSpill bytes.Buffer
		fmt.Fprintf(&fromSpill, "== %s n=%d lfs=%d\n", tc.name, tc.n, len(lfs))
		writeRowModels(t, &fromSpill, spilled, ix, lfs, tc.k)
		if st := spilled.SpillStats(); st.Spills == 0 {
			t.Fatalf("%s: a 64-byte budget evicted nothing", tc.name)
		}
		spilled.Close()
		if !bytes.Equal(resident.Bytes(), fromSpill.Bytes()) {
			t.Fatalf("%s: spilled matrix outputs differ from the resident matrix", tc.name)
		}
		buf.Write(resident.Bytes())
	}

	golden := filepath.Join("testdata", "rowmodels.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("row-model outputs drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}
