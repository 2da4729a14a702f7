// Package linalg provides the dense linear algebra kernels used by the
// sparse regression solvers and the circuit simulator: row-major matrices,
// Householder QR, Cholesky and LU factorizations, triangular solves and the
// small vector kernels they are built from.
//
// The package is deliberately self-contained (stdlib only) and tuned for the
// shapes that appear in this repository: tall-thin least-squares systems with
// a few hundred columns, and small-to-medium square MNA systems.
package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] is element (i,j)
}

// NewMatrix allocates a zero matrix with the given dimensions.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged input row %d: got %d, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Matrix) Col(dst []float64, j int) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol assigns column j from src.
func (m *Matrix) SetCol(j int, src []float64) {
	if len(src) != m.Rows {
		panic(fmt.Sprintf("linalg: SetCol length %d, want %d", len(src), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = m · x. dst is allocated when nil; it must not alias x.
func (m *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec input length %d, want %d", len(x), m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}

// MulTransVec computes dst = mᵀ · x. dst is allocated when nil; it must not
// alias x.
func (m *Matrix) MulTransVec(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: MulTransVec input length %d, want %d", len(x), m.Rows))
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			dst[j] += xi * v
		}
	}
	return dst
}
