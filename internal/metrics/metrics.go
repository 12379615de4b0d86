// Package metrics implements the evaluation measures reported in the
// DataSculpt paper: classification accuracy, binary F1 for the imbalanced
// datasets (SMS, Spouse), per-class precision/recall, confusion matrices,
// and the label-function statistics of Table 2 (per-LF accuracy and
// coverage, and total coverage).
package metrics

import (
	"fmt"
	"math"
)

// Accuracy returns the fraction of predictions equal to the gold labels.
// It returns 0 for empty input. The slices must have equal length.
func Accuracy(pred, gold []int) float64 {
	if len(pred) != len(gold) {
		panic(fmt.Sprintf("metrics: len(pred)=%d != len(gold)=%d", len(pred), len(gold)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == gold[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// ConfusionMatrix counts predictions by (gold, predicted) class over k
// classes. Labels outside [0,k) are ignored, which lets callers pass
// abstain markers (-1) without pre-filtering.
func ConfusionMatrix(pred, gold []int, k int) [][]int {
	if len(pred) != len(gold) {
		panic(fmt.Sprintf("metrics: len(pred)=%d != len(gold)=%d", len(pred), len(gold)))
	}
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	for i := range pred {
		g, p := gold[i], pred[i]
		if g < 0 || g >= k || p < 0 || p >= k {
			continue
		}
		m[g][p]++
	}
	return m
}

// PrecisionRecallF1 computes precision, recall and F1 for one target class
// from a confusion matrix. Undefined ratios (zero denominators) are 0.
func PrecisionRecallF1(cm [][]int, class int) (precision, recall, f1 float64) {
	if class < 0 || class >= len(cm) {
		return 0, 0, 0
	}
	tp := cm[class][class]
	var fp, fn int
	for c := range cm {
		if c == class {
			continue
		}
		fp += cm[c][class]
		fn += cm[class][c]
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// BinaryF1 returns the F1 score of the positive class (label 1), the
// metric the paper reports for the imbalanced SMS and Spouse datasets.
func BinaryF1(pred, gold []int) float64 {
	cm := ConfusionMatrix(pred, gold, 2)
	_, _, f1 := PrecisionRecallF1(cm, 1)
	return f1
}

// Mean returns the arithmetic mean of the values, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
// Non-positive entries contribute zero, so callers may pass unsmoothed
// model outputs directly.
func Entropy(p []float64) float64 {
	var h float64
	for _, pi := range p {
		if pi > 0 {
			h -= pi * math.Log(pi)
		}
	}
	return h
}

// ArgMax returns the index of the largest value, breaking ties toward the
// lowest index; -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
