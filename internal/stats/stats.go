// Package stats provides the statistical primitives for the variability
// modeling flow: sample moments, quantiles, and the relative modeling-error
// metric used across all experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (0 for fewer than two
// points).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// StdDev returns the unbiased sample standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Quantile returns the p-quantile of x (linear interpolation between order
// statistics). It panics for empty x or p outside [0, 1].
func Quantile(x []float64, p float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return SortedQuantile(s, p)
}

// SortedQuantile is Quantile for x already in ascending order (as left by
// sort.Float64s): it interpolates in place, without copying or sorting.
func SortedQuantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		panic("stats: Quantile of empty data")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Quantile p=%g outside [0,1]", p))
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// RelativeRMSError is the modeling-error metric of the paper's Section V:
// the root-mean-square prediction residual normalized by the RMS magnitude
// of the true values. pred and truth must have equal nonzero length.
func RelativeRMSError(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		panic(fmt.Sprintf("stats: RelativeRMSError lengths %d vs %d", len(pred), len(truth)))
	}
	var num, den float64
	for i := range pred {
		d := pred[i] - truth[i]
		num += d * d
		den += truth[i] * truth[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
