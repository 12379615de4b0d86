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

// TestVoteMatrixColumnRowConsistencyProperty: every sparse column must
// list ascending ids with no abstains, the coverage statistics must
// equal the active fractions, and the row view must agree with the
// columns.
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
		covSum := 0.0
		for j := 0; j < vm.NumLFs(); j++ {
			ids, votes := vm.Active(j)
			if len(ids) != len(votes) {
				return false
			}
			for t, id := range ids {
				if votes[t] == Abstain || (t > 0 && ids[t-1] >= id) {
					return false
				}
			}
			covSum += float64(len(ids)) / float64(vm.NumExamples())
		}
		if vm.ComputeStats(nil, 1).MeanCoverage != covSum/float64(vm.NumLFs()) {
			return false
		}
		return rowsMatchColumns(vm)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// rowsMatchColumns reports whether the row view lists, for every
// example, exactly the LFs whose dense column does not abstain there, in
// ascending order, with those votes.
func rowsMatchColumns(vm *VoteMatrix) bool {
	rows := vm.Rows()
	if rows.NumRows() != vm.NumExamples() {
		return false
	}
	cols := make([][]int8, vm.NumLFs())
	for j := range cols {
		cols[j] = denseColumn(vm, j)
	}
	for i := 0; i < vm.NumExamples(); i++ {
		js, vs := rows.Row(i)
		t := 0
		for j, col := range cols {
			v := col[i]
			if v == Abstain {
				continue
			}
			if t == len(js) || int(js[t]) != j || vs[t] != v {
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

// denseColumn materializes LF j's votes from its sparse Active list as a
// length-n column, Abstain where the LF is inactive: the dense reference
// the sparse readers are checked against.
func denseColumn(vm *VoteMatrix, j int) []int8 {
	col := make([]int8, vm.NumExamples())
	for i := range col {
		col[i] = Abstain
	}
	ids, votes := vm.Active(j)
	for t, id := range ids {
		col[id] = votes[t]
	}
	return col
}
