package lf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"datasculpt/internal/dataset"
)

// TestSerializeRoundTripProperty round-trips randomly generated LF sets
// and verifies behavioural equivalence on random probes.
func TestSerializeRoundTripProperty(t *testing.T) {
	vocab := []string{"free", "cash", "prize", "melody", "song", "channel",
		"subscribe", "winner", "lovely", "amazing"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lfs []LabelFunction
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			words := 1 + rng.Intn(3)
			var parts []string
			for w := 0; w < words; w++ {
				parts = append(parts, vocab[rng.Intn(len(vocab))])
			}
			phrase := strings.Join(parts, " ")
			class := rng.Intn(3)
			switch rng.Intn(3) {
			case 0:
				f, err := NewKeywordLF(phrase, class)
				if err != nil {
					return false
				}
				lfs = append(lfs, f)
			case 1:
				f, err := NewEntityKeywordLF(phrase, class)
				if err != nil {
					return false
				}
				lfs = append(lfs, f)
			default:
				other := vocab[rng.Intn(len(vocab))]
				f, err := NewDisjunctionLF("p", []string{phrase, other}, class, rng.Intn(2) == 0)
				if err != nil {
					return false
				}
				lfs = append(lfs, f)
			}
		}
		data, err := MarshalLFs(lfs)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := UnmarshalLFs(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if len(back) != len(lfs) {
			return false
		}
		// behavioural equivalence on random probes (with and without
		// entity spans)
		for trial := 0; trial < 10; trial++ {
			var words []string
			for w := 0; w < 3+rng.Intn(10); w++ {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
			probe := &dataset.Example{Text: strings.Join(words, " "), E1Pos: -1, E2Pos: -1}
			probe.EnsureTokens()
			if rng.Intn(2) == 0 && len(probe.Tokens) >= 4 {
				probe.E1Pos, probe.E2Pos = 0, 2
				probe.Entity1 = probe.Tokens[0] + " " + probe.Tokens[1]
				probe.Entity2 = probe.Tokens[2] + " " + probe.Tokens[3]
			}
			for i := range lfs {
				if lfs[i].Apply(probe) != back[i].Apply(probe) {
					t.Logf("LF %d (%s) diverges after round trip", i, lfs[i].Name())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVoteMatrixColumnRowConsistencyProperty: Row and Column views of the
// matrix must agree, coverage must equal the active fraction, and the
// row view must agree with Vote on the resident matrix and on a spilling
// copy whose budget forces evictions.
func TestVoteMatrixColumnRowConsistencyProperty(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "free", "cash"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var split []*dataset.Example
		for i := 0; i < 30; i++ {
			var words []string
			for w := 0; w < 2+rng.Intn(8); w++ {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
			e := &dataset.Example{ID: i, Text: strings.Join(words, " "), E1Pos: -1, E2Pos: -1}
			e.EnsureTokens()
			split = append(split, e)
		}
		var lfs []LabelFunction
		for j := 0; j < 4; j++ {
			f, err := NewKeywordLF(vocab[rng.Intn(len(vocab))], rng.Intn(2))
			if err != nil {
				return false
			}
			lfs = append(lfs, f)
		}
		ix := NewIndex(split)
		vm := BuildVoteMatrix(ix, lfs)
		spilled := NewVoteMatrix(ix.Size())
		if err := spilled.EnableSpill(16, t.TempDir(), nil); err != nil {
			t.Fatal(err)
		}
		defer spilled.Close()
		spilled.AppendLFs(ix, lfs, 2)
		for j := 0; j < vm.NumLFs(); j++ {
			col := vm.Column(j)
			active := 0
			for i := range col {
				if int(col[i]) != vm.Vote(i, j) {
					return false
				}
				if col[i] != Abstain {
					active++
				}
				row := vm.Row(i, nil)
				if row[j] != vm.Vote(i, j) {
					return false
				}
			}
			if vm.Coverage(j) != float64(active)/float64(vm.NumExamples()) {
				return false
			}
		}
		return rowsMatchVote(vm) && rowsMatchVote(spilled)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// rowsMatchVote reports whether the row view lists, for every example,
// exactly the LFs whose Vote is not Abstain, in ascending order, with
// those votes.
func rowsMatchVote(vm *VoteMatrix) bool {
	rows := vm.Rows()
	if rows.NumRows() != vm.NumExamples() {
		return false
	}
	for i := 0; i < vm.NumExamples(); i++ {
		js, vs := rows.Row(i)
		t := 0
		for j := 0; j < vm.NumLFs(); j++ {
			v := vm.Vote(i, j)
			if v == Abstain {
				continue
			}
			if t == len(js) || int(js[t]) != j || int(vs[t]) != v {
				return false
			}
			t++
		}
		if t != len(js) {
			return false
		}
	}
	return true
}
