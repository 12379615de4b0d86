package labelmodel

import (
	"encoding/json"
	"math"
	"testing"

	"datasculpt/internal/lf"
)

// fitSmallMetal fits a MeTaL on a small deterministic matrix and returns
// it with the matrix. Coverage is partial, so some rows are uncovered.
func fitSmallMetal(t *testing.T) (*MeTaL, *lf.VoteMatrix) {
	t.Helper()
	vm, _ := synthVotes(t, 42, 40, 2, []float64{0.9, 0.8, 0.7}, []float64{0.5, 0.4, 0.3})
	m := NewMeTaL()
	if err := m.Fit(vm, 2); err != nil {
		t.Fatal(err)
	}
	return m, vm
}

func TestMetalRoundTripBitIdentical(t *testing.T) {
	m, vm := fitSmallMetal(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var g MeTaL
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	want, got := m.PredictProba(vm), g.PredictProba(vm)
	for i := range want {
		if (want[i] == nil) != (got[i] == nil) {
			t.Fatalf("row %d: nil mismatch", i)
		}
		for c := range want[i] {
			if math.Float64bits(want[i][c]) != math.Float64bits(got[i][c]) {
				t.Fatalf("row %d class %d: %v vs %v", i, c, want[i][c], got[i][c])
			}
		}
	}
}

func TestMetalSerializeUnfitted(t *testing.T) {
	if _, err := json.Marshal(NewMeTaL()); err == nil {
		t.Fatal("marshaling an unfitted model should fail")
	}
}

func TestMetalUnmarshalRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"k":1,"prior":[1]}`,
		`{"k":2,"prior":[0.5,0.6],"acc":[]}`,
		`{"k":2,"prior":[0.5,0.5],"acc":[1.5]}`,
		`{"k":2,"prior":[0.5,0.5],"acc":[0.9],"theta":[[0.5]]}`,
		`{"k":2,"prior":[0.5,0.5],"acc":[0.9],"theta":[[0.5,2.0]]}`,
		`{"k":2,"prior":[0.5,0.5],"acc":[0.9],"voteless":[true,false]}`,
		`nope`,
	}
	for _, c := range cases {
		var g MeTaL
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("Unmarshal(%s) should fail", c)
		}
	}
}

// TestPredictorMatchesPredictProba asserts the single-example scorer is
// bit-identical to the batch path, row by row, including nil rows for
// uncovered examples — the equivalence the serving daemon's explain mode
// relies on.
func TestPredictorMatchesPredictProba(t *testing.T) {
	m, vm := fitSmallMetal(t)
	p := m.NewPredictor()
	if p.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", p.NumClasses())
	}
	batch := m.PredictProba(vm)
	rows := vm.Rows()
	for i := 0; i < vm.NumExamples(); i++ {
		rj, rv := rows.Row(i)
		js, vs := make([]int, len(rj)), make([]int, len(rv))
		for t := range rj {
			js[t], vs[t] = int(rj[t]), int(rv[t])
		}
		one := p.Posterior(js, vs)
		if (one == nil) != (batch[i] == nil) {
			t.Fatalf("example %d: nil mismatch (single %v, batch %v)", i, one, batch[i])
		}
		for c := range one {
			if math.Float64bits(one[c]) != math.Float64bits(batch[i][c]) {
				t.Fatalf("example %d class %d: %v vs %v", i, c, one[c], batch[i][c])
			}
		}
	}
}

func TestPredictorRoundTrippedModel(t *testing.T) {
	m, _ := fitSmallMetal(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var g MeTaL
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if g.NumLFs() != m.NumLFs() {
		t.Fatalf("NumLFs = %d, want %d", g.NumLFs(), m.NumLFs())
	}
	a, b := m.NewPredictor(), g.NewPredictor()
	js, vs := []int{0, 2}, []int{1, 1}
	pa, pb := a.Posterior(js, vs), b.Posterior(js, vs)
	for c := range pa {
		if math.Float64bits(pa[c]) != math.Float64bits(pb[c]) {
			t.Fatalf("class %d: %v vs %v", c, pa[c], pb[c])
		}
	}
}
