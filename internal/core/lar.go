package core

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// LAR is the least angle regression solver of the DAC'09 paper [2] (Efron,
// Hastie, Johnstone & Tibshirani [16]). It relaxes the L0 constraint of
// eq. (11) into an L1 penalty and walks the piecewise-linear solution path:
// at each breakpoint the coefficient vector moves along the equiangular
// direction of the active basis vectors until an inactive vector reaches the
// same absolute correlation with the residual.
//
// Columns are normalized to unit Euclidean norm internally (the basis
// functions are orthonormal in expectation, but their Monte Carlo basis
// vectors are not), and coefficients are rescaled back on output. The
// normalization, correlation sweeps, Gram factor and drop/refactorization all
// come from the shared engine (ActiveSet with cfg.normalize); this file keeps
// LAR's own step rule — the equiangular direction, the breakpoint step γ and
// the lasso sign-crossing drop.
type LAR struct {
	// Lasso enables the lasso modification: a coefficient whose sign would
	// flip is removed from the active set at the crossing point, yielding
	// the exact L1-penalized path rather than plain LARS.
	Lasso bool
	// Refit re-solves an unpenalized least-squares fit on each model's
	// support, removing the L1 shrinkage from the reported coefficients.
	Refit bool
	// Tol stops the path early once the relative residual falls below it.
	Tol float64
}

// Name implements PathFitter.
func (l *LAR) Name() string { return "LAR" }

// FitPath implements PathFitter.
func (l *LAR) FitPath(d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return l.FitPathCtx(nil, d, f, maxLambda)
}

// FitPathCtx implements ContextFitter: the path walk polls fc at every
// breakpoint so cancellation stops the fit promptly.
func (l *LAR) FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	as, err := newActiveSet(fc, d, f, maxLambda, activeSetConfig{
		solver: "LAR", clampRows: true, normalize: true, gram: true,
	})
	if err != nil {
		return nil, err
	}
	beta := make([]float64, as.m) // coefficients in normalized-column space
	a := make([]float64, as.m)    // G_jᵀ·u sweep scratch
	u := make([]float64, as.k)    // unit equiangular vector
	path := &Path{}

	record := func(sel int) {
		coef := make([]float64, as.Size())
		for i, idx := range as.support {
			coef[i] = beta[idx] / as.norms[idx] // undo normalization
		}
		if l.Refit {
			if refit, err := refitOnSupport(d, f, as.support); err == nil {
				coef = refit
			}
		}
		as.Record(path, coef, sel)
	}

	// Continuation: beta lives in normalized-column space, so a checkpoint
	// stores it gathered over the support and resume scatters it back. LAR
	// rejects appended samples (restore: normalization makes every column —
	// and so the whole path geometry — dependent on the sample set) and
	// ignores warm starts for the same reason.
	if ck, err := fc.resumeFor("LAR"); err != nil {
		return nil, err
	} else if ck != nil {
		if err := as.restore(ck, path); err != nil {
			return nil, err
		}
		for i, idx := range ck.Support {
			beta[idx] = ck.Beta[i]
		}
	}
	capture := func(ck *FitCheckpoint) {
		ck.Beta = make([]float64, len(as.support))
		for i, idx := range as.support {
			ck.Beta[i] = beta[idx]
		}
	}

	const eps = 1e-12
	for as.Size() < as.MaxLambda() {
		if err := as.Err(); err != nil {
			return nil, err
		}
		// Correlations with the current residual (normalized columns).
		c, err := as.CorrelateResidual()
		if err != nil {
			return nil, err
		}
		// Highest correlation among inactive, admissible columns.
		sel := as.SelectMostCorrelated(c)
		if sel == -1 {
			break // dictionary exhausted or residual uncorrelated
		}
		selAbs := math.Abs(c[sel])
		// Append the new column to the active factorization; a dependent
		// column is excluded by TryAppend and the breakpoint re-runs.
		ok, err := as.TryAppend(sel)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}

		// Equiangular direction: solve (G_AᵀG_A)·v = s_A.
		signs := make([]float64, as.Size())
		for i, idx := range as.support {
			if c[idx] >= 0 {
				signs[i] = 1
			} else {
				signs[i] = -1
			}
		}
		v, err := as.SolveGram(signs)
		if err != nil {
			return nil, fmt.Errorf("core: LAR equiangular solve: %w", err)
		}
		sv := linalg.Dot(signs, v)
		if sv <= 0 {
			return nil, errDegenerate("LAR", "equiangular normalization failed (rank-deficient active set)")
		}
		aa := 1 / math.Sqrt(sv) // A_A in Efron et al. notation
		// u = A_A · G_A · v (unit equiangular vector).
		for i := range u {
			u[i] = 0
		}
		for i, col := range as.cols {
			linalg.Axpy(aa*v[i], col, u)
		}
		// a_j = G_jᵀ·u for every j (normalized).
		if _, err := as.Correlate(a, u); err != nil {
			return nil, err
		}

		// C = current common absolute correlation of the active set.
		bigC := selAbs
		gammaMax := bigC / aa // distance to the full least-squares point
		gamma := gammaMax
		for j := range c {
			if as.active[j] || as.excluded[j] {
				continue
			}
			if g := (bigC - c[j]) / (aa - a[j]); g > eps && g < gamma {
				gamma = g
			}
			if g := (bigC + c[j]) / (aa + a[j]); g > eps && g < gamma {
				gamma = g
			}
		}

		// Lasso modification: stop at the first sign crossing and drop that
		// variable (Efron et al., Section 3.1).
		dropIdx := -1
		if l.Lasso {
			for i, idx := range as.support {
				step := aa * v[i] // Δβ_idx per unit γ
				if step == 0 {
					continue
				}
				if g := -beta[idx] / step; g > eps && g < gamma {
					gamma = g
					dropIdx = i
				}
			}
		}

		// Advance the path: β_A += γ·A_A·v, residual −= γ·u.
		for i, idx := range as.support {
			beta[idx] += gamma * aa * v[i]
		}
		linalg.Axpy(-gamma, u, as.res)

		if dropIdx >= 0 {
			beta[as.support[dropIdx]] = 0
			if err := as.Drop(dropIdx); err != nil {
				return nil, err
			}
			continue // a drop does not produce a new path model
		}

		record(sel)
		if checkpointAfter(fc, as, path, capture) {
			return path, nil
		}
		if as.BelowTol(l.Tol) {
			break
		}
	}
	if len(path.Models) == 0 {
		return nil, as.errDegenerateNoSelection()
	}
	captureCheckpoint(fc, as, path, capture)
	return path, nil
}

// refitOnSupport solves the unpenalized least-squares problem restricted to
// the given support columns.
func refitOnSupport(d basis.Design, f []float64, support []int) ([]float64, error) {
	k := d.Rows()
	g := linalg.NewMatrix(k, len(support))
	col := make([]float64, k)
	for i, idx := range support {
		d.Column(col, idx)
		g.SetCol(i, col)
	}
	return linalg.SolveLeastSquares(g, f)
}

var _ ContextFitter = (*LAR)(nil)
