package endmodel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"datasculpt/internal/textproc"
)

// benchSet draws n L2-normalized vectors of nnz distinct features over
// the pipeline's default hashed width, with one-hot targets over k
// classes: the shape of a pipeline's end-model training set.
func benchSet(n, nnz, k int) ([]*textproc.SparseVector, [][]float64, int) {
	const dim = 8192
	rng := rand.New(rand.NewSource(int64(k)))
	X := make([]*textproc.SparseVector, n)
	Y := make([][]float64, n)
	for i := range X {
		seen := make(map[int32]bool, nnz)
		v := &textproc.SparseVector{}
		for len(v.Idx) < nnz {
			f := int32(rng.Intn(dim))
			if !seen[f] {
				seen[f] = true
				v.Idx = append(v.Idx, f)
			}
		}
		sort.Slice(v.Idx, func(a, b int) bool { return v.Idx[a] < v.Idx[b] })
		for range v.Idx {
			v.Val = append(v.Val, float32(rng.Float64()))
		}
		v.Normalize()
		X[i] = v
		Y[i] = make([]float64, k)
		Y[i][rng.Intn(k)] = 1
	}
	return X, Y, dim
}

// BenchmarkTrain times two SGD epochs over 4000 × 60-nnz vectors.
func BenchmarkTrain(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			X, Y, dim := benchSet(4000, 60, k)
			cfg := TrainConfig{Epochs: 2, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(X, Y, nil, k, dim, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictProbaAll times sequential scoring of the same 4000
// vectors by a model trained on them.
func BenchmarkPredictProbaAll(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			X, Y, dim := benchSet(4000, 60, k)
			m, err := Train(X, Y, nil, k, dim, TrainConfig{Epochs: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictProbaAll(X)
			}
		})
	}
}
