package labelmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// TestLabelModelPosteriorProperties drives every label model over
// randomized vote matrices and asserts the posterior invariants: one
// probability vector per covered example summing to 1, nil for uncovered.
func TestLabelModelPosteriorProperties(t *testing.T) {
	prop := func(seed int64, kRaw, mRaw uint8) bool {
		k := 2 + int(kRaw%3) // 2..4 classes
		m := 2 + int(mRaw%5) // 2..6 LFs
		accs := make([]float64, m)
		covs := make([]float64, m)
		for j := range accs {
			accs[j] = 0.55 + 0.4*float64((int(seed)+j)%10)/10
			covs[j] = 0.2 + 0.6*float64((int(seed)+3*j)%10)/10
		}
		vm, _ := synthVotes(t, seed, 300, k, accs, covs)
		models := []LabelModel{NewMajorityVote(), NewMeTaL(), NewDawidSkene()}
		if k == 2 {
			models = append(models, NewTriplet())
		}
		for _, model := range models {
			if err := model.Fit(vm, k); err != nil {
				// zero-coverage draws may legitimately fail; skip them
				continue
			}
			rows := vm.Rows()
			for i, p := range model.PredictProba(vm) {
				js, _ := rows.Row(i)
				if covered := len(js) > 0; covered != (p != nil) {
					t.Logf("%s: coverage/nil mismatch at %d", model.Name(), i)
					return false
				}
				if p == nil {
					continue
				}
				var sum float64
				for _, v := range p {
					if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
						t.Logf("%s: probability out of range: %v", model.Name(), p)
						return false
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Logf("%s: posterior sums to %v", model.Name(), sum)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
