package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when an LU factorization meets a zero pivot.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U. It is the
// workhorse of the MNA circuit solver, where the system matrix is square and
// unsymmetric.
type LU struct {
	fact *Matrix
	piv  []int
}

// LUFactor computes the LU factorization of the square matrix a with partial
// pivoting. The input is not modified.
func LUFactor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LUFactor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := a.Clone()
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p, max := k, math.Abs(f.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.At(i, k)); v > max {
				p, max = i, v
			}
		}
		piv[k] = p
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := f.Row(k), f.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1.0 / f.At(k, k)
		for i := k + 1; i < n; i++ {
			lik := f.At(i, k) * inv
			f.Set(i, k, lik)
			if lik == 0 {
				continue
			}
			ri, rk := f.Row(i), f.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= lik * rk[j]
			}
		}
	}
	return &LU{fact: f, piv: piv}, nil
}

// Solve solves A·x = b. b is not modified.
func (lu *LU) Solve(b []float64) ([]float64, error) {
	n := lu.fact.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU.Solve rhs length %d, want %d", len(b), n)
	}
	x := Clone(b)
	// Apply the row permutation.
	for k := 0; k < n; k++ {
		if p := lu.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward: L·y = P·b (unit diagonal).
	for i := 1; i < n; i++ {
		ri := lu.fact.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Backward: U·x = y.
	for i := n - 1; i >= 0; i-- {
		ri := lu.fact.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x, nil
}
