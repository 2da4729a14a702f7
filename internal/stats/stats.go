// Package stats provides the statistical primitives for the variability
// modeling flow: sample moments, covariance/correlation estimation, a
// symmetric eigensolver, principal component analysis (the PCA step of the
// paper's Section II), and the relative modeling-error metric used across
// all experiments.
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

// Correlation returns the Pearson correlation of x and y.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Correlation length mismatch %d vs %d", len(x), len(y)))
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
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

// BootstrapCI estimates a percentile confidence interval for a statistic of
// paired prediction/truth samples by resampling with replacement. It is used
// to put error bars on the modeling-error numbers reported in EXPERIMENTS.md
// — a point estimate from a few hundred held-out samples carries sampling
// noise that the paper's tables leave implicit.
//
// stat receives resampled (pred, truth) slices and returns the statistic
// (e.g. RelativeRMSError); level is the two-sided confidence level in (0,1);
// rounds is the number of bootstrap resamples.
func BootstrapCI(pred, truth []float64, stat func(pred, truth []float64) float64,
	level float64, rounds int, seed int64) (lo, hi float64) {
	if len(pred) != len(truth) || len(pred) == 0 {
		panic(fmt.Sprintf("stats: BootstrapCI lengths %d vs %d", len(pred), len(truth)))
	}
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("stats: BootstrapCI level %g outside (0,1)", level))
	}
	if rounds < 10 {
		rounds = 10
	}
	n := len(pred)
	rp := make([]float64, n)
	rt := make([]float64, n)
	vals := make([]float64, rounds)
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			j := int(next() % uint64(n))
			rp[i], rt[i] = pred[j], truth[j]
		}
		vals[r] = stat(rp, rt)
	}
	alpha := (1 - level) / 2
	return Quantile(vals, alpha), Quantile(vals, 1-alpha)
}
