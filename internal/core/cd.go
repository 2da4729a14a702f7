package core

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// CD solves the L1-relaxed problem by cyclic coordinate descent with soft
// thresholding (the "shooting" algorithm for the lasso):
//
//	minimize (1/2K)·‖G·α − F‖₂² + μ·‖α‖₁
//
// It walks a geometric grid of penalties from μ_max (all coefficients zero)
// downward with warm starts, recording a model each time the active-set size
// grows, which yields an (approximately nested) Path compatible with
// cross-validation. CD is an independent cross-check of the LAR solver: on
// the same μ the two must agree, which TestCDMatchesLassoLAR asserts.
//
// CD keeps its own working set (dense α, warm starts across the μ grid don't
// fit the ActiveSet's strictly growing support), but its full-dictionary
// correlation sweeps — the per-sweep Gᵀ·res scan and the μ_max computation —
// run through the engine's shared Correlator kernel, so CD picks up the
// parallel column-sharded sweep like every other solver.
type CD struct {
	// L2 adds an elastic-net ridge term (µ₂/2K)·‖α‖₂² to the objective:
	// the soft-threshold denominator becomes z_j + µ₂/K, which stabilizes
	// selection among strongly correlated basis vectors (groups enter
	// together instead of one arbitrary member). Zero gives the plain lasso.
	L2 float64
	// MaxSweeps bounds the coordinate sweeps per grid point (default 500).
	MaxSweeps int
	// Tol is the relative coordinate-update convergence threshold
	// (default 1e-9).
	Tol float64
	// GridPerDecade sets the μ grid density (default 25 points/decade).
	GridPerDecade int
	// Decades is the μ range below μ_max to explore (default 4).
	Decades int
	// Refit re-solves unpenalized least squares on each recorded support.
	Refit bool
}

// Name implements PathFitter.
func (c *CD) Name() string { return "CD" }

func (c *CD) sweeps() int {
	if c.MaxSweeps > 0 {
		return c.MaxSweeps
	}
	return 500
}

func (c *CD) tol() float64 {
	if c.Tol > 0 {
		return c.Tol
	}
	return 1e-9
}

func (c *CD) grid() float64 {
	per := c.GridPerDecade
	if per <= 0 {
		per = 25
	}
	return math.Pow(10, -1/float64(per))
}

func (c *CD) decades() int {
	if c.Decades > 0 {
		return c.Decades
	}
	return 4
}

// Fit runs the path until lambda active coefficients and returns the final
// model.
func (c *CD) Fit(d basis.Design, f []float64, lambda int) (*Model, error) {
	path, err := c.FitPath(d, f, lambda)
	if err != nil {
		return nil, err
	}
	return path.Models[len(path.Models)-1], nil
}

// FitLambda solves one lasso problem at a fixed penalty μ and returns the
// model (no path).
func (c *CD) FitLambda(d basis.Design, f []float64, mu float64) (*Model, error) {
	if err := checkProblem(d, f, 1); err != nil {
		return nil, err
	}
	if mu < 0 {
		return nil, fmt.Errorf("core: CD penalty μ=%g must be non-negative", mu)
	}
	st := newCDState(d, f, NewEngine(0))
	st.l2 = c.L2 / float64(d.Rows())
	if err := st.solve(nil, mu, c.sweeps(), c.tol()); err != nil {
		return nil, err
	}
	return st.model(d, f, c.Refit), nil
}

// FitPath implements PathFitter.
func (c *CD) FitPath(d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return c.FitPathCtx(nil, d, f, maxLambda)
}

// FitPathCtx implements ContextFitter: fc is polled once per coordinate
// sweep, the unit of work on the μ grid.
func (c *CD) FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	if err := checkProblem(d, f, maxLambda); err != nil {
		return nil, err
	}
	k := d.Rows()
	if maxLambda > k {
		maxLambda = k
	}
	if maxLambda > d.Cols() {
		maxLambda = d.Cols()
	}
	st := newCDState(d, f, fc.engine())
	st.l2 = c.L2 / float64(d.Rows())
	// μ_max: the smallest penalty at which every coefficient is zero. The
	// correlator's first sweep validates the result for NaN/Inf, so a
	// non-finite design or response entry surfaces here.
	corr, err := st.corr.Apply(nil, f)
	if err != nil {
		return nil, err
	}
	muMax := 0.0
	for j, v := range corr {
		if st.z[j] == 0 {
			continue
		}
		if a := math.Abs(v) / float64(k); a > muMax {
			muMax = a
		}
	}
	if muMax == 0 {
		return nil, errDegenerate("CD", "response is uncorrelated with every basis vector")
	}
	path := &Path{}
	muMin := muMax * math.Pow(10, -float64(c.decades()))
	lastNNZ := 0
	// Continuation: CD keeps its own working set, so it serializes the sparse
	// α, the residual and the grid position directly instead of the engine's
	// Gram state. Resume restarts the grid at the point after the checkpointed
	// one — the stored Mu is the accumulated product, so the continued grid is
	// bit-identical to the uninterrupted one. Appended samples are rejected
	// (the whole μ grid is scaled by 1/K) and warm starts are ignored: CD's
	// grid descent is already warm-started by construction.
	startMu := muMax * c.grid()
	doneMu := muMax
	if ck, err := fc.resumeFor("CD"); err != nil {
		return nil, err
	} else if ck != nil {
		if ck.M != d.Cols() {
			return nil, fmt.Errorf("core: CD resume: checkpoint dictionary %d, design has %d", ck.M, d.Cols())
		}
		if ck.K != k {
			return nil, fmt.Errorf("core: CD resume: checkpoint has %d samples, design has %d; grid resume needs identical data", ck.K, k)
		}
		for i, j := range ck.AlphaIdx {
			st.alpha[j] = ck.AlphaVal[i]
		}
		copy(st.res, ck.Residual)
		path.Models = append(path.Models, ck.Models...)
		path.Residual = append(path.Residual, ck.ResNorms...)
		lastNNZ = ck.LastNNZ
		doneMu = ck.Mu
		startMu = ck.Mu * c.grid()
	}
	capture := func() *FitCheckpoint {
		ck := &FitCheckpoint{
			Version:   CheckpointVersion,
			Solver:    "CD",
			K:         k,
			M:         d.Cols(),
			MaxLambda: maxLambda,
			Residual:  linalg.Clone(st.res),
			Models:    append([]*Model(nil), path.Models...),
			ResNorms:  append([]float64(nil), path.Residual...),
			Mu:        doneMu,
			LastNNZ:   lastNNZ,
		}
		for j, a := range st.alpha {
			if a != 0 {
				ck.AlphaIdx = append(ck.AlphaIdx, j)
				ck.AlphaVal = append(ck.AlphaVal, a)
			}
		}
		return ck
	}
	for mu := startMu; mu > muMin; mu *= c.grid() {
		if err := st.solve(fc, mu, c.sweeps(), c.tol()); err != nil {
			return nil, err
		}
		nnz := st.nnz()
		if nnz > maxLambda {
			break
		}
		doneMu = mu
		if nnz > lastNNZ {
			// Record one model per new sparsity level (duplicate the current
			// model when the active set grows by more than one).
			m := st.model(d, f, c.Refit)
			for lastNNZ < nnz {
				path.Models = append(path.Models, m)
				path.Residual = append(path.Residual, linalg.Norm2(st.res))
				lastNNZ++
			}
			fc.Observe(-1, nnz, linalg.Norm2(st.res)) // grid step: no single basis
			if fc != nil && fc.plan != nil && fc.plan.After > 0 && len(path.Models) >= fc.plan.After {
				fc.plan.CK = capture()
				return path, nil
			}
		}
	}
	if len(path.Models) == 0 {
		return nil, errDegenerate("CD", "selected no basis vectors; increase Decades")
	}
	if fc != nil && fc.plan != nil {
		fc.plan.CK = capture()
	}
	return path, nil
}

// cdState is the reusable coordinate-descent working set.
type cdState struct {
	d     basis.Design
	corr  *Correlator // engine sweep kernel for the full-dictionary Gᵀ·x scans
	k     int
	l2    float64 // elastic-net ridge term, already scaled by 1/K
	alpha []float64
	res   []float64 // F − G·α
	z     []float64 // (1/K)·‖G_j‖²
	// cols caches materialized columns for the coordinates that have ever
	// been active or updated, bounding repeated Column calls on lazy designs.
	cols map[int][]float64
}

func newCDState(d basis.Design, f []float64, eng *Engine) *cdState {
	k := d.Rows()
	st := &cdState{
		d:     d,
		corr:  eng.correlator(d),
		k:     k,
		alpha: make([]float64, d.Cols()),
		res:   linalg.Clone(f),
		z:     make([]float64, d.Cols()),
		cols:  make(map[int][]float64),
	}
	squaredColumnNorms(d, st.z)
	for j := range st.z {
		st.z[j] /= float64(k)
	}
	return st
}

func (st *cdState) column(j int) []float64 {
	if c, ok := st.cols[j]; ok {
		return c
	}
	c := st.d.Column(nil, j)
	st.cols[j] = c
	return c
}

// solve runs cyclic coordinate descent at penalty mu from the current warm
// start, polling fc once per sweep.
func (st *cdState) solve(fc *FitContext, mu float64, maxSweeps int, tol float64) error {
	m := len(st.alpha)
	kf := float64(st.k)
	corr := make([]float64, m)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if err := fc.Err(); err != nil {
			return fmt.Errorf("core: CD fit stopped: %w", err)
		}
		maxDelta := 0.0
		// A full sweep re-scans every coordinate; the correlation vector is
		// recomputed in one engine-kernel pass, then coordinates update
		// against the live residual.
		if _, err := st.corr.Apply(corr, st.res); err != nil {
			return err
		}
		for j := 0; j < m; j++ {
			if st.z[j] == 0 {
				continue
			}
			var rho float64
			if st.alpha[j] != 0 || math.Abs(corr[j])/kf > mu {
				col := st.column(j)
				rho = linalg.Dot(col, st.res)/kf + st.z[j]*st.alpha[j]
			} else {
				// Inactive and below threshold: stays zero.
				continue
			}
			var next float64
			den := st.z[j] + st.l2
			switch {
			case rho > mu:
				next = (rho - mu) / den
			case rho < -mu:
				next = (rho + mu) / den
			default:
				next = 0
			}
			if next != st.alpha[j] {
				delta := st.alpha[j] - next
				linalg.Axpy(delta, st.column(j), st.res)
				st.alpha[j] = next
				if a := math.Abs(delta) * math.Sqrt(st.z[j]); a > maxDelta {
					maxDelta = a
				}
			}
		}
		if maxDelta <= tol*(1+linalg.NormInf(st.alpha)) {
			return nil
		}
	}
	return nil
}

func (st *cdState) nnz() int {
	n := 0
	for _, a := range st.alpha {
		if a != 0 {
			n++
		}
	}
	return n
}

func (st *cdState) model(d basis.Design, f []float64, refit bool) *Model {
	var support []int
	var coef []float64
	for j, a := range st.alpha {
		if a != 0 {
			support = append(support, j)
			coef = append(coef, a)
		}
	}
	m := &Model{M: len(st.alpha), Support: support, Coef: coef}
	if refit && len(support) > 0 {
		if rc, err := refitOnSupport(d, f, support); err == nil {
			m.Coef = rc
		}
	}
	return m
}

var _ ContextFitter = (*CD)(nil)
