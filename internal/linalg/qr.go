package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned when a factorization meets a (numerically)
// singular pivot.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n.
// The factors are stored compactly: R in the upper triangle of fact, the
// Householder vectors below the diagonal, and the scalar factors in tau.
type QR struct {
	fact *Matrix
	tau  []float64
}

// QRFactor computes the Householder QR factorization of a. The input matrix
// is not modified. It requires a.Rows ≥ a.Cols.
func QRFactor(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QRFactor needs rows ≥ cols, got %dx%d", m, n)
	}
	f := a.Clone()
	tau := make([]float64, n)
	col := make([]float64, m)
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k below row k.
		for i := k; i < m; i++ {
			col[i] = f.At(i, k)
		}
		norm := Norm2(col[k:m])
		if norm == 0 {
			tau[k] = 0
			continue
		}
		alpha := col[k]
		beta := -math.Copysign(norm, alpha)
		v0 := alpha - beta
		// v = [1, col[k+1:]/v0]; tau = v0/(-beta) in LAPACK convention.
		tau[k] = -v0 / beta
		inv := 1.0 / v0
		f.Set(k, k, beta)
		for i := k + 1; i < m; i++ {
			f.Set(i, k, col[i]*inv)
		}
		// Apply the reflector to the trailing columns: A ← (I − tau·v·vᵀ)·A.
		for j := k + 1; j < n; j++ {
			s := f.At(k, j)
			for i := k + 1; i < m; i++ {
				s += f.At(i, k) * f.At(i, j)
			}
			s *= tau[k]
			f.Set(k, j, f.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				f.Set(i, j, f.At(i, j)-s*f.At(i, k))
			}
		}
	}
	return &QR{fact: f, tau: tau}, nil
}

// applyQT overwrites b with Qᵀ·b.
func (qr *QR) applyQT(b []float64) {
	m, n := qr.fact.Rows, qr.fact.Cols
	if len(b) != m {
		panic(fmt.Sprintf("linalg: applyQT length %d, want %d", len(b), m))
	}
	for k := 0; k < n; k++ {
		if qr.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < m; i++ {
			s += qr.fact.At(i, k) * b[i]
		}
		s *= qr.tau[k]
		b[k] -= s
		for i := k + 1; i < m; i++ {
			b[i] -= s * qr.fact.At(i, k)
		}
	}
}

// Solve finds x minimizing ‖A·x − b‖₂ using the factorization. b is not
// modified. It returns ErrRankDeficient when R has a zero diagonal pivot.
func (qr *QR) Solve(b []float64) ([]float64, error) {
	m, n := qr.fact.Rows, qr.fact.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR.Solve rhs length %d, want %d", len(b), m)
	}
	work := Clone(b)
	qr.applyQT(work)
	x := work[:n]
	// A pivot far smaller than the largest diagonal of R means the column is
	// numerically dependent on earlier ones.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(qr.fact.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	// Back substitution with R.
	for i := n - 1; i >= 0; i-- {
		d := qr.fact.At(i, i)
		if math.Abs(d) <= 1e-13*maxDiag {
			return nil, ErrRankDeficient
		}
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= qr.fact.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return Clone(x), nil
}

// SolveLeastSquares solves min ‖A·x − b‖₂ by Householder QR.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	qr, err := QRFactor(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}
