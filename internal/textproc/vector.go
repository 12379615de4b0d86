package textproc

import (
	"fmt"
	"math"
)

// SparseVector is an L2-normalizable sparse feature vector stored as
// parallel, index-sorted slices. It is the representation consumed by the
// logistic-regression end model and by KATE cosine retrieval.
type SparseVector struct {
	Idx []int32
	Val []float32
}

// NNZ returns the number of stored (non-zero) entries.
func (v *SparseVector) NNZ() int { return len(v.Idx) }

// Dot computes the inner product of two index-sorted sparse vectors.
func (v *SparseVector) Dot(o *SparseVector) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(v.Idx) && j < len(o.Idx) {
		switch {
		case v.Idx[i] < o.Idx[j]:
			i++
		case v.Idx[i] > o.Idx[j]:
			j++
		default:
			sum += float64(v.Val[i]) * float64(o.Val[j])
			i++
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm of the vector.
func (v *SparseVector) Norm() float64 {
	var sum float64
	for _, x := range v.Val {
		sum += float64(x) * float64(x)
	}
	return math.Sqrt(sum)
}

// Cosine returns the cosine similarity of two sparse vectors, or 0 when
// either vector is zero.
func (v *SparseVector) Cosine(o *SparseVector) float64 {
	nv, no := v.Norm(), o.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(o) / (nv * no)
}

// Normalize scales the vector to unit Euclidean norm in place. A zero
// vector is left unchanged.
func (v *SparseVector) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v.Val {
		v.Val[i] *= inv
	}
}

// Validate checks the structural invariants of the vector: equal-length
// slices, strictly increasing indices and finite values. It is used by the
// property-based tests and returns a descriptive error on violation.
func (v *SparseVector) Validate(dim int) error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse vector: len(Idx)=%d != len(Val)=%d", len(v.Idx), len(v.Val))
	}
	for i, idx := range v.Idx {
		if idx < 0 || int(idx) >= dim {
			return fmt.Errorf("sparse vector: index %d out of range [0,%d)", idx, dim)
		}
		if i > 0 && v.Idx[i-1] >= idx {
			return fmt.Errorf("sparse vector: indices not strictly increasing at %d", i)
		}
		if math.IsNaN(float64(v.Val[i])) || math.IsInf(float64(v.Val[i]), 0) {
			return fmt.Errorf("sparse vector: non-finite value at %d", i)
		}
	}
	return nil
}
