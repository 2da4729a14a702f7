package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, used by the AC (small-signal
// frequency domain) analysis of the circuit simulator.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix allocates a zero complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Add accumulates into element (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Reset zeroes the matrix in place.
func (m *CMatrix) Reset() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SolveComplex solves the square complex system A·x = b by LU factorization
// with partial pivoting. A and b are not modified.
func SolveComplex(a *CMatrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: SolveComplex needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveComplex rhs length %d, want %d", len(b), n)
	}
	f := make([]complex128, len(a.Data))
	copy(f, a.Data)
	x := make([]complex128, n)
	copy(x, b)
	at := func(i, j int) complex128 { return f[i*n+j] }
	set := func(i, j int, v complex128) { f[i*n+j] = v }
	for k := 0; k < n; k++ {
		// Partial pivot by magnitude.
		p, max := k, cmplx.Abs(at(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(at(i, k)); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f[k*n+j], f[p*n+j] = f[p*n+j], f[k*n+j]
			}
			x[k], x[p] = x[p], x[k]
		}
		inv := 1 / at(k, k)
		for i := k + 1; i < n; i++ {
			lik := at(i, k) * inv
			if lik == 0 {
				continue
			}
			set(i, k, lik)
			for j := k + 1; j < n; j++ {
				set(i, j, at(i, j)-lik*at(k, j))
			}
			x[i] -= lik * x[k]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= at(i, j) * x[j]
		}
		x[i] = s / at(i, i)
	}
	return x, nil
}
