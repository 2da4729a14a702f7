package core

import (
	"fmt"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// LS is the classical least-squares response surface fit [21]: it solves the
// over-determined system G·α = F (eq. 6) for every coefficient at once and
// therefore requires at least as many sampling points as basis functions
// (K ≥ M). It is the baseline all sparse solvers are compared against in
// Section V.
type LS struct{}

// Fit solves the full least-squares problem. The returned model has every
// basis function in its support.
func (LS) Fit(d basis.Design, f []float64, _ int) (*Model, error) {
	if err := checkProblem(d, f, 1); err != nil {
		return nil, err
	}
	k, m := d.Rows(), d.Cols()
	if k < m {
		return nil, fmt.Errorf("core: LS needs K ≥ M, got K=%d, M=%d (use a sparse solver for underdetermined systems)", k, m)
	}
	var g *linalg.Matrix
	if dd, ok := d.(*basis.DenseDesign); ok {
		g = dd.Matrix()
	} else {
		g = linalg.NewMatrix(k, m)
		col := make([]float64, k)
		for j := 0; j < m; j++ {
			d.Column(col, j)
			g.SetCol(j, col)
		}
	}
	coef, err := linalg.SolveLeastSquares(g, f)
	if err != nil {
		return nil, fmt.Errorf("core: LS fit: %w", err)
	}
	support := make([]int, m)
	for i := range support {
		support[i] = i
	}
	return &Model{M: m, Support: support, Coef: coef}, nil
}
