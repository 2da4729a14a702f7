package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of x (0 for empty x).
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y ← y + alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale computes x ← alpha·x in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub computes dst = x − y. dst is allocated when nil.
func Sub(dst, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(x), len(y)))
	}
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i := range x {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
