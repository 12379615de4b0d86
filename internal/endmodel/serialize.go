package endmodel

import (
	"encoding/json"
	"fmt"
	"math"
)

// modelJSON is the stored form of a trained model. Weights are kept
// sparse (index/value pairs per class): hashed TF-IDF leaves most of the
// weight matrix at exactly zero, so sparse storage keeps saved models
// small without any precision loss. The stored layout is class-major
// whatever the in-memory layout, so saved bytes (and bundle
// fingerprints) do not depend on it.
type modelJSON struct {
	Dim     int         `json:"dim"`
	K       int         `json:"k"`
	Bias    []float64   `json:"bias"`
	Indices [][]int     `json:"indices"`
	Values  [][]float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler.
func (m *LogisticRegression) MarshalJSON() ([]byte, error) {
	out := modelJSON{
		Dim:     m.Dim,
		K:       m.K,
		Bias:    m.B,
		Indices: make([][]int, m.K),
		Values:  make([][]float64, m.K),
	}
	for c := 0; c < m.K; c++ {
		for f := 0; f < m.Dim; f++ {
			w := m.W[f*m.K+c]
			if w == 0 {
				continue
			}
			out.Indices[c] = append(out.Indices[c], f)
			out.Values[c] = append(out.Values[c], w)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the structure.
func (m *LogisticRegression) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("endmodel: decoding model: %w", err)
	}
	if in.Dim <= 0 || in.K < 2 {
		return fmt.Errorf("endmodel: invalid shape %dx%d", in.K, in.Dim)
	}
	if len(in.Bias) != in.K || len(in.Indices) != in.K || len(in.Values) != in.K {
		return fmt.Errorf("endmodel: class-count mismatch in stored model")
	}
	m.Dim, m.K = in.Dim, in.K
	m.B = in.Bias
	m.W = make([]float64, in.Dim*in.K)
	for c := 0; c < in.K; c++ {
		if len(in.Indices[c]) != len(in.Values[c]) {
			return fmt.Errorf("endmodel: class %d has %d indices for %d values",
				c, len(in.Indices[c]), len(in.Values[c]))
		}
		for t, f := range in.Indices[c] {
			if f < 0 || f >= in.Dim {
				return fmt.Errorf("endmodel: class %d feature index %d out of range", c, f)
			}
			v := in.Values[c][t]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("endmodel: class %d has a non-finite weight", c)
			}
			m.W[f*in.K+c] = v
		}
	}
	return nil
}
