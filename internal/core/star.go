package core

import (
	"repro/internal/basis"
	"repro/internal/linalg"
)

// STAR is the statistical regression solver of DAC'08 [1], implemented as
// described in Section V of the paper: it applies the same inner-product
// selection criterion as OMP, but "directly uses the inner product in (18)
// to determine the model coefficient of the selected basis function at each
// iteration step" — i.e. matching pursuit without the least-squares re-fit.
//
// Because the coefficient of the selected basis is the plain estimator
// ξ_s = (1/K)·G_sᵀ·Res, earlier coefficients are never revisited, which is
// exactly the weakness the paper's OMP addresses (and the source of STAR's
// larger modeling error in Figs. 4 and Tables II/IV).
//
// As an engine strategy, STAR is the degenerate case: correlate + select
// from the shared ActiveSet, no Gram factor, and a one-column residual
// update as its step rule.
type STAR struct {
	// Tol stops the path early once the relative residual falls below it.
	Tol float64
}

// Name implements PathFitter.
func (s *STAR) Name() string { return "STAR" }

// FitPath implements PathFitter.
func (s *STAR) FitPath(d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return s.FitPathCtx(nil, d, f, maxLambda)
}

// FitPathCtx implements ContextFitter.
func (s *STAR) FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	as, err := newActiveSet(fc, d, f, maxLambda, activeSetConfig{solver: "STAR"})
	if err != nil {
		return nil, err
	}
	var coef []float64
	path := &Path{}
	// STAR's continuation extra is its running coefficient stack — the
	// inner-product estimates are never revisited, so the stack plus the
	// residual is the entire fit state. Appended samples are rejected by
	// restore (no Gram factor to fold them into) and warm starts are
	// meaningless here: replaying a support without sweeps would need a
	// residual-driven coefficient anyway.
	if ck, err := fc.resumeFor("STAR"); err != nil {
		return nil, err
	} else if ck != nil {
		if err := as.restore(ck, path); err != nil {
			return nil, err
		}
		coef = append(coef, ck.Coef...)
	}
	capture := func(ck *FitCheckpoint) {
		ck.Coef = append([]float64(nil), coef...)
	}
	for as.Size() < as.MaxLambda() {
		if err := as.Err(); err != nil {
			return nil, err
		}
		xi, err := as.CorrelateResidual()
		if err != nil {
			return nil, err
		}
		sel := as.SelectMostCorrelated(xi)
		if sel == -1 {
			if as.Size() == 0 {
				return nil, as.errDegenerateNoSelection()
			}
			captureCheckpoint(fc, as, path, capture)
			return path, nil // residual uncorrelated with every remaining basis
		}
		// Coefficient straight from the inner-product estimator (eq. 18):
		// α_s = (1/K)·G_sᵀ·Res — no re-fit, so no Gram bookkeeping.
		alpha := xi[sel] / float64(as.k)
		col := as.AppendFree(sel)
		linalg.Axpy(-alpha, col, as.res)

		coef = append(coef, alpha)
		as.Record(path, append([]float64(nil), coef...), sel)
		if checkpointAfter(fc, as, path, capture) {
			return path, nil
		}
		if as.BelowTol(s.Tol) {
			break
		}
	}
	captureCheckpoint(fc, as, path, capture)
	return path, nil
}

var _ ContextFitter = (*STAR)(nil)
