package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization meets a
// non-positive pivot.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky is a growable lower-triangular Cholesky factor L of a symmetric
// positive definite matrix A = L·Lᵀ. It supports appending one row/column to
// A at a time, which is how the OMP and LAR solvers grow their active-set
// Gram matrices by one basis per iteration without refactorizing.
type Cholesky struct {
	n int
	l []float64 // packed lower triangle, row by row: row i has i+1 entries
}

// NewCholesky returns an empty (0×0) growable factor.
func NewCholesky() *Cholesky { return &Cholesky{} }

// CholeskyFactor factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func CholeskyFactor(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: CholeskyFactor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	c := NewCholesky()
	row := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < i; j++ {
			row[j] = a.At(i, j)
		}
		if err := c.Append(row[:i], a.At(i, i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// rowAt returns the packed slice for row i of L.
func (c *Cholesky) rowAt(i int) []float64 {
	start := i * (i + 1) / 2
	return c.l[start : start+i+1]
}

// Append grows A by one row/column whose off-diagonal part is cross
// (cross[j] = A[n][j] for j < n) and whose diagonal entry is diag. It returns
// ErrNotPositiveDefinite (leaving the factor unchanged) when the update would
// produce a non-positive pivot, which signals that the appended column is
// linearly dependent on the existing ones.
func (c *Cholesky) Append(cross []float64, diag float64) error {
	if len(cross) != c.n {
		return fmt.Errorf("linalg: Cholesky.Append cross length %d, want %d", len(cross), c.n)
	}
	// Solve L·w = cross by forward substitution.
	w := make([]float64, c.n+1)
	for i := 0; i < c.n; i++ {
		s := cross[i]
		ri := c.rowAt(i)
		for j := 0; j < i; j++ {
			s -= ri[j] * w[j]
		}
		w[i] = s / ri[i]
	}
	d := diag
	for i := 0; i < c.n; i++ {
		d -= w[i] * w[i]
	}
	// Guard against loss of positive definiteness from cancellation: d/diag
	// is the squared sine of the angle between the new column and the span
	// of the existing ones; treat near-zero angles as dependence.
	if d <= 0 || d <= 1e-10*math.Abs(diag) {
		return ErrNotPositiveDefinite
	}
	w[c.n] = math.Sqrt(d)
	c.l = append(c.l, w...)
	c.n++
	return nil
}

// Update applies the rank-one update A' = A + x·xᵀ to the factored matrix
// in place, using the Givens-style recurrence of Golub & Van Loan §12.5.
// Adding x·xᵀ keeps A positive definite, so the update never fails. x is
// consumed as scratch and left in an undefined state.
func (c *Cholesky) Update(x []float64) {
	if len(x) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Update vector length %d, want %d", len(x), c.n))
	}
	c.updateFrom(x, 0)
}

// updateFrom applies A' = A + x·xᵀ restricted to the trailing square block
// that starts at row/column `start` (x has length n−start). The leading
// rows and the off-block rectangle are untouched, which is exactly the
// shape Drop needs: deleting row/column i perturbs only the trailing
// (n−1−i)×(n−1−i) block of the Gram matrix.
func (c *Cholesky) updateFrom(x []float64, start int) {
	for k := start; k < c.n; k++ {
		rk := c.rowAt(k)
		lkk := rk[k]
		xk := x[k-start]
		r := math.Sqrt(lkk*lkk + xk*xk)
		cs := r / lkk
		sn := xk / lkk
		rk[k] = r
		for j := k + 1; j < c.n; j++ {
			rj := c.rowAt(j)
			rj[k] = (rj[k] + sn*x[j-start]) / cs
			x[j-start] = cs*x[j-start] - sn*rj[k]
		}
	}
}

// Drop removes row/column i of the factored matrix — a true downdate, O((n−i)²)
// instead of the O(n³) refactorization. Writing A in block form around row i,
//
//	A = [A11  a1   A31ᵀ]        L = [L11            ]
//	    [a1ᵀ  aii  a3ᵀ ]            [l1ᵀ  lii       ]
//	    [A31  a3   A33 ]            [L31  l32   L33 ]
//
// the deleted factor keeps L11 and L31 unchanged, and the trailing block
// satisfies A33 = L31·L31ᵀ + l32·l32ᵀ + L33·L33ᵀ, so the new trailing factor
// is the rank-one *update* of L33 by the deleted column l32 — which, unlike
// a downdate, cannot lose positive definiteness.
func (c *Cholesky) Drop(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Drop(%d) on size %d", i, c.n))
	}
	// l32: the deleted column's sub-diagonal entries, saved before compaction.
	x := make([]float64, c.n-1-i)
	for j := i + 1; j < c.n; j++ {
		x[j-1-i] = c.rowAt(j)[i]
	}
	// Compact the packed triangle: rows < i keep their storage; row j > i
	// moves down one slot with its column-i entry removed.
	out := c.l[:i*(i+1)/2]
	for j := i + 1; j < c.n; j++ {
		rj := c.rowAt(j)
		out = append(out, rj[:i]...)
		out = append(out, rj[i+1:]...)
	}
	c.l = out
	c.n--
	c.updateFrom(x, i)
}

// Packed returns a copy of the factor's packed lower triangle (row by row,
// row i holding i+1 entries) — the serializable form consumed by
// CholeskyFromPacked. Together they give fit checkpoints an exact
// round-trip of the factor without refactorizing on resume.
func (c *Cholesky) Packed() []float64 {
	return append([]float64(nil), c.l...)
}

// CholeskyFromPacked rebuilds a factor of dimension n from a packed lower
// triangle as produced by Packed. It validates the shape and that every
// diagonal entry is positive and finite — the invariants Solve relies on —
// so corrupt checkpoint bytes surface as errors, never as NaN results.
func CholeskyFromPacked(n int, l []float64) (*Cholesky, error) {
	if n < 0 {
		return nil, fmt.Errorf("linalg: CholeskyFromPacked dimension %d", n)
	}
	if len(l) != n*(n+1)/2 {
		return nil, fmt.Errorf("linalg: CholeskyFromPacked has %d entries, want %d for n=%d", len(l), n*(n+1)/2, n)
	}
	c := &Cholesky{n: n, l: append([]float64(nil), l...)}
	for i := 0; i < n; i++ {
		d := c.rowAt(i)[i]
		if !(d > 0) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("linalg: CholeskyFromPacked diagonal %d is %v: %w", i, d, ErrNotPositiveDefinite)
		}
	}
	return c, nil
}

// SolveLeading solves the leading j×j subsystem A[:j,:j]·x = b, which for a
// factor grown by Append is exactly the Gram system of the first j appended
// columns. Incremental refits use it to refresh the coefficients of every
// path-prefix model after new samples are folded into the factor.
func (c *Cholesky) SolveLeading(j int, b []float64) ([]float64, error) {
	if j < 0 || j > c.n {
		return nil, fmt.Errorf("linalg: Cholesky.SolveLeading(%d) on size %d", j, c.n)
	}
	sub := &Cholesky{n: j, l: c.l[:j*(j+1)/2]}
	return sub.Solve(b)
}

// Solve solves A·x = b given A = L·Lᵀ. b is not modified.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("linalg: Cholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	x := Clone(b)
	// Forward: L·y = b.
	for i := 0; i < c.n; i++ {
		ri := c.rowAt(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	// Backward: Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < c.n; j++ {
			s -= c.rowAt(j)[i] * x[j]
		}
		x[i] = s / c.rowAt(i)[i]
	}
	return x, nil
}
