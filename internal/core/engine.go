package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// This file is the shared active-set solver engine. All path solvers (OMP,
// STAR, LAR, StOMP, CD) are strategy layers over the same inner machinery of
// Algorithm 1: the Gᵀ·res correlation sweep (eq. 18), active-set bookkeeping
// with degenerate-column exclusion, the growable-Cholesky least-squares
// refit of the active Gram matrix (eq. 22), residual maintenance, and the
// FitContext cancellation/telemetry hooks. Efron et al.'s LAR formulation
// and Tropp & Gilbert's OMP analysis both factor their solvers exactly this
// way — selection and step rules over a common equiangular/active-set
// substrate — so the engine implements the substrate once and each solver
// file keeps only its rule.

// correlateParallelMin is the K·M product below which the correlation sweep
// stays serial: forking goroutines costs ~µs while a small sweep completes
// in less, so tiny fits must not pay scheduler overhead.
const correlateParallelMin = 1 << 15

// colMajorizeMax is the K·M product above which the engine refuses to
// materialize a column-major copy of the design (8·colMajorizeMax bytes —
// 256 MB — of extra resident memory). Beyond it the sweep falls back to the
// design's own MulTransVec, which for lazy/generated paper-scale designs is
// already streaming (and, for GeneratedDesign, internally parallel).
const colMajorizeMax = 32 << 20

// fitWorkersCtxKey carries the requested correlation worker count in a
// context (see WithFitWorkers).
type fitWorkersCtxKey struct{}

// WithFitWorkers requests that solver fits run under ctx use n goroutines
// for the engine's parallel correlation sweep. n ≤ 0 means automatic
// (GOMAXPROCS). The serving daemon threads its -fit-workers flag through
// this; CLI fits default to automatic.
func WithFitWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, fitWorkersCtxKey{}, n)
}

// FitWorkersFromContext returns the worker count requested via
// WithFitWorkers, or 0 (automatic) when unset.
func FitWorkersFromContext(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	n, _ := ctx.Value(fitWorkersCtxKey{}).(int)
	return n
}

// ResolveFitWorkers maps a configured worker count to the effective one:
// n ≤ 0 selects GOMAXPROCS. It is exported so the serving layer can report
// the effective parallelism in its metrics.
func ResolveFitWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Engine owns the reusable allocation state of the active-set solvers: the
// correlation scratch (length M), the residual buffer (length K), a column
// buffer, and the worker count of the parallel sweep. One engine serves one
// fit at a time. Under CrossValidateCtx each of the Q+1 path fits has its
// own engine, whose lane hands the fit's sweeps to the lockstep driver.
type Engine struct {
	workers int // requested; 0 = GOMAXPROCS

	xi     []float64
	res    []float64
	colBuf []float64

	// lane, when set, routes every correlation sweep of the engine's fit
	// through a cross-validation's lockstep driver (see lockstep.go).
	lane *cvLane
}

// NewEngine returns an engine whose correlation sweeps use the given worker
// count (0 = automatic).
func NewEngine(workers int) *Engine {
	return &Engine{workers: workers}
}

// Workers returns the effective worker count of this engine's sweeps.
func (e *Engine) Workers() int { return ResolveFitWorkers(e.workers) }

// grow returns a slice of length n, reusing buf's backing array when large
// enough.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (e *Engine) xiBuf(m int) []float64 {
	e.xi = grow(e.xi, m)
	return e.xi
}

func (e *Engine) resBuf(k int) []float64 {
	e.res = grow(e.res, k)
	return e.res
}

func (e *Engine) columnBuf(k int) []float64 {
	e.colBuf = grow(e.colBuf, k)
	return e.colBuf
}

// correlator builds the sweep kernel for a fit on d. A fit on a
// cross-validation lane never copies its design: the lane's lockstep sweep
// reads the one shared column-major design.
func (e *Engine) correlator(d basis.Design) *Correlator {
	if e.lane != nil {
		return &Correlator{d: d, lane: e.lane}
	}
	return newCorrelator(d, e.Workers())
}

// Correlator is the engine's Gᵀ·x kernel — the dominant cost of every path
// iteration (eq. 18). When the design is (or can affordably be copied into)
// column-major blocked storage, the sweep shards contiguous column ranges
// across workers goroutines; each worker computes plain per-column dot
// products into its disjoint slice of dst, so the parallel sweep is
// bit-identical to the serial one. Below correlateParallelMin, or when the
// design stays in its own representation, the sweep runs serially through
// the design's MulTransVec. A correlator on a cross-validation lane posts
// its sweeps to the lockstep driver instead.
type Correlator struct {
	d       basis.Design
	cm      *basis.ColMajor
	workers int
	lane    *cvLane
	checked bool // first-sweep NaN/Inf validation done
}

// newCorrelator builds the kernel for d. workers is the effective goroutine
// count (≥ 1).
func newCorrelator(d basis.Design, workers int) *Correlator {
	c := &Correlator{d: d, workers: workers}
	if cm, ok := d.(*basis.ColMajor); ok {
		c.cm = cm
		return c
	}
	if workers > 1 && worthColMajor(d) {
		// One row-streaming materialization pass, amortized over the λ (or
		// λ·folds) sweeps of the path fit it serves.
		c.cm = basis.NewColMajor(d)
	}
	return c
}

// Apply computes dst = Gᵀ·x (allocating dst when nil). The first sweep of a
// correlator's life validates the result for NaN/Inf: x is the raw response
// there, so a non-finite design or response entry surfaces immediately
// instead of silently corrupting the path.
func (c *Correlator) Apply(dst, x []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, c.d.Cols())
	}
	if c.lane != nil {
		if err := c.lane.sweep(dst, x); err != nil {
			return dst, err
		}
	} else {
		c.sweep(dst, x)
	}
	if !c.checked {
		c.checked = true
		if err := checkFiniteVec("design correlation", dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// sweep computes dst = Gᵀ·x in the correlator's own storage: sharded over
// the worker pool on column-major storage above correlateParallelMin,
// serially otherwise.
func (c *Correlator) sweep(dst, x []float64) {
	switch {
	case c.cm == nil:
		c.d.MulTransVec(dst, x)
	case c.workers > 1 && c.cm.Rows()*c.cm.Cols() >= correlateParallelMin:
		forColumnBlocks(c.cm.Cols(), c.workers, func(lo, hi int) {
			c.cm.MulTransVecRange(dst, x, lo, hi)
		})
	default:
		c.cm.MulTransVec(dst, x)
	}
}

// forColumnBlocks runs fn over contiguous column blocks covering [0, m), one
// goroutine per block, at most workers blocks. Blocks write disjoint dst
// ranges and per-column summation order is unchanged, so a sharded sweep is
// bit-identical to the serial one regardless of worker count.
func forColumnBlocks(m, workers int, fn func(lo, hi int)) {
	workers = min(workers, m)
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, m))
	}
	wg.Wait()
}

// worthColMajor reports whether d's K·M lies in the window where a
// column-major copy pays for itself: large enough that sweeps outweigh the
// one copy pass, small enough (colMajorizeMax) to hold a second K×M array.
func worthColMajor(d basis.Design) bool {
	size := d.Rows() * d.Cols()
	return size >= correlateParallelMin && size <= colMajorizeMax
}

// activeSetConfig selects the engine features a solver strategy needs.
type activeSetConfig struct {
	// solver labels errors and cancellation messages.
	solver string
	// clampRows additionally caps maxLambda at K (solvers whose
	// least-squares refit needs λ ≤ K: OMP, StOMP, LAR, CD).
	clampRows bool
	// normalize scales every column to unit Euclidean norm inside the
	// engine (LAR); zero-norm columns are excluded up front.
	normalize bool
	// gram maintains the growable Cholesky factor of the active Gram
	// matrix and the Gᵀ_Ω·F right-hand side (OMP, StOMP, LAR). STAR never
	// re-fits, so it skips the factor entirely.
	gram bool
}

// ActiveSet is the engine's mutable fit state: the residual, the selected
// support with its materialized columns, the growable Cholesky factor of
// the active Gram matrix, cached column norms, and the cancellation +
// telemetry hooks. Solver strategies drive it through a small verb set —
// correlate, select, append, refit, recompute, drop — and keep only their
// selection/step rule locally.
type ActiveSet struct {
	cfg activeSetConfig
	d   basis.Design
	fc  *FitContext
	eng *Engine

	corr *Correlator
	k, m int

	f     []float64
	fNorm float64
	res   []float64
	xi    []float64

	// norms[j] is ‖G_j‖₂ when cfg.normalize, nil otherwise.
	norms []float64

	maxLambda int
	support   []int
	cols      [][]float64
	gtf       []float64 // Gᵀ_Ω·F aligned with support (gram only)
	active    []bool
	excluded  []bool
	chol      *linalg.Cholesky
}

// newActiveSet validates the problem (the engine's single validator — see
// checkProblem) and assembles the fit state. It is the one entry point every
// solver strategy goes through.
func newActiveSet(fc *FitContext, d basis.Design, f []float64, maxLambda int, cfg activeSetConfig) (*ActiveSet, error) {
	if err := checkProblem(d, f, maxLambda); err != nil {
		return nil, err
	}
	eng := fc.engine()
	k, m := d.Rows(), d.Cols()
	if maxLambda > m {
		maxLambda = m
	}
	if cfg.clampRows && maxLambda > k {
		// Selecting more bases than samples would make the LS re-fit
		// underdetermined; Algorithm 1 implicitly requires λ ≤ K.
		maxLambda = k
	}
	as := &ActiveSet{
		cfg: cfg, d: d, fc: fc, eng: eng,
		corr: eng.correlator(d),
		k:    k, m: m,
		f:     f,
		fNorm: linalg.Norm2(f),
		res:   eng.resBuf(k),
		xi:    eng.xiBuf(m),

		maxLambda: maxLambda,
		active:    make([]bool, m),
		excluded:  make([]bool, m),
	}
	copy(as.res, f)
	if cfg.gram {
		as.chol = linalg.NewCholesky()
	}
	if cfg.normalize {
		// One row-streaming pass — a per-column loop would cost M full
		// column materializations, prohibitive on lazy/generated designs.
		as.norms = squaredColumnNorms(d, nil)
		for j, n := range as.norms {
			if n <= 0 {
				as.excluded[j] = true
				as.norms[j] = 1 // avoid division by zero; column is excluded anyway
			} else {
				as.norms[j] = math.Sqrt(n)
			}
		}
	}
	return as, nil
}

// Size returns the active-set cardinality |Ω|.
func (as *ActiveSet) Size() int { return len(as.support) }

// MaxLambda returns the clamped sparsity budget.
func (as *ActiveSet) MaxLambda() int { return as.maxLambda }

// Err polls the fit's cancellation hook, wrapping the cause with the solver
// name. Solvers call it at the top of every path iteration.
func (as *ActiveSet) Err() error {
	if err := as.fc.Err(); err != nil {
		return fmt.Errorf("core: %s fit stopped: %w", as.cfg.solver, err)
	}
	return nil
}

// Correlate computes dst = Gᵀ·x through the parallel kernel, dividing by the
// column norms when the set is normalized. Passing nil dst uses (and
// returns) the engine's correlation scratch xi.
func (as *ActiveSet) Correlate(dst, x []float64) ([]float64, error) {
	if dst == nil {
		dst = as.xi
	}
	dst, err := as.corr.Apply(dst, x)
	if err != nil {
		return dst, err
	}
	if as.norms != nil {
		for j := range dst {
			dst[j] /= as.norms[j]
		}
	}
	return dst, nil
}

// CorrelateResidual refreshes the correlation scratch xi = Gᵀ·res — Step 3
// of Algorithm 1 — and returns it.
func (as *ActiveSet) CorrelateResidual() ([]float64, error) {
	return as.Correlate(as.xi, as.res)
}

// SelectMostCorrelated returns the admissible column (neither active nor
// excluded) with the largest |xi| — Step 4's selection rule — or -1 when the
// dictionary is exhausted or the best correlation is degenerate (below
// degenEps relative to ‖F‖, i.e. floating-point noise).
func (as *ActiveSet) SelectMostCorrelated(xi []float64) int {
	best, bestAbs := -1, 0.0
	for j, v := range xi {
		if as.active[j] || as.excluded[j] {
			continue
		}
		a := math.Abs(v)
		if best == -1 || a > bestAbs {
			best, bestAbs = j, a
		}
	}
	if best != -1 && bestAbs <= degenEps*(1+as.fNorm) {
		return -1
	}
	return best
}

// column materializes column j (normalized when the set is), always into a
// fresh slice safe to retain.
func (as *ActiveSet) column(j int) []float64 {
	col := as.d.Column(nil, j)
	if as.norms != nil {
		inv := 1 / as.norms[j]
		for i := range col {
			col[i] *= inv
		}
	}
	return col
}

// TryAppend attempts Step 5: grow the active set by column j, extending the
// Cholesky factor of the Gram matrix by the new row. A column linearly
// dependent on the active set (non-positive-definite update) is excluded
// and reported as ok=false so the caller can try its next candidate; other
// factorization failures abort the fit.
func (as *ActiveSet) TryAppend(j int) (bool, error) {
	col := as.column(j)
	cross := make([]float64, len(as.cols))
	for i, existing := range as.cols {
		cross[i] = linalg.Dot(existing, col)
	}
	if err := as.chol.Append(cross, linalg.Dot(col, col)); err != nil {
		if errors.Is(err, linalg.ErrNotPositiveDefinite) {
			as.excluded[j] = true // dependent column; caller tries the next best
			return false, nil
		}
		return false, fmt.Errorf("core: %s Gram update: %w", as.cfg.solver, err)
	}
	as.support = append(as.support, j)
	as.cols = append(as.cols, col)
	as.gtf = append(as.gtf, linalg.Dot(col, as.f))
	as.active[j] = true
	return true, nil
}

// AppendFree grows the active set without Gram bookkeeping — the matching-
// pursuit variant (STAR) that never re-fits. It returns the materialized
// column in a transient buffer valid until the next engine call.
func (as *ActiveSet) AppendFree(j int) []float64 {
	col := as.eng.columnBuf(as.k)
	as.d.Column(col, j)
	as.support = append(as.support, j)
	as.active[j] = true
	return col
}

// RefitActive solves Step 6 (eq. 22): the least-squares coefficients of all
// active columns, through the Cholesky factor.
func (as *ActiveSet) RefitActive() ([]float64, error) {
	coef, err := as.chol.Solve(as.gtf)
	if err != nil {
		return nil, fmt.Errorf("core: %s coefficient solve: %w", as.cfg.solver, err)
	}
	return coef, nil
}

// SolveGram solves (G_ΩᵀG_Ω)·x = rhs against the active Gram factor (LAR's
// equiangular direction system).
func (as *ActiveSet) SolveGram(rhs []float64) ([]float64, error) {
	return as.chol.Solve(rhs)
}

// RecomputeResidual rebuilds Step 7 (eq. 23): res = F − Σ coefᵢ·G_i over the
// active columns.
func (as *ActiveSet) RecomputeResidual(coef []float64) {
	copy(as.res, as.f)
	for i, col := range as.cols {
		linalg.Axpy(-coef[i], col, as.res)
	}
}

// Drop removes support member i (LAR's lasso modification) through the
// factor's rank-one downdate: deleting row/column i of the Gram matrix
// perturbs only the trailing block, which linalg.Cholesky.Drop repairs in
// O((λ−i)²) — against the O(K·λ² + λ³) dot-product refactorization this
// used to run on every lasso sign crossing.
func (as *ActiveSet) Drop(i int) error {
	idx := as.support[i]
	as.active[idx] = false
	as.support = append(as.support[:i], as.support[i+1:]...)
	as.cols = append(as.cols[:i], as.cols[i+1:]...)
	if as.gtf != nil {
		as.gtf = append(as.gtf[:i], as.gtf[i+1:]...)
	}
	as.chol.Drop(i)
	return nil
}

// Record appends one path step: a model over the current support with the
// given coefficients (stored as passed; pass an owned slice), the residual
// norm, and one telemetry event. selected is the chosen basis index, or -1
// for batch admissions.
func (as *ActiveSet) Record(path *Path, coef []float64, selected int) {
	model := &Model{
		M:       as.m,
		Support: append([]int(nil), as.support...),
		Coef:    coef,
	}
	path.Models = append(path.Models, model)
	resNorm := linalg.Norm2(as.res)
	path.Residual = append(path.Residual, resNorm)
	as.fc.Observe(selected, len(as.support), resNorm)
}

// BelowTol reports whether the relative residual has crossed the solver's
// early-stop threshold (tol ≤ 0 never stops).
func (as *ActiveSet) BelowTol(tol float64) bool {
	return tol > 0 && as.fNorm > 0 && linalg.Norm2(as.res) <= tol*as.fNorm
}

// errDegenerateNoSelection is the shared "could not select any basis vector"
// failure every greedy solver reports on a fully degenerate problem.
func (as *ActiveSet) errDegenerateNoSelection() error {
	return errDegenerate(as.cfg.solver, "could not select any basis vector")
}

// checkProblem is the engine's single input validator, shared by every
// fitter (sparse strategies, LS, Ridge, SelectIC, CrossValidate).
func checkProblem(d basis.Design, f []float64, maxLambda int) error {
	if d.Rows() != len(f) {
		return fmt.Errorf("core: design has %d rows but response has %d entries", d.Rows(), len(f))
	}
	if d.Rows() == 0 {
		return fmt.Errorf("core: empty sample set")
	}
	if maxLambda < 1 {
		return fmt.Errorf("core: maxLambda must be ≥ 1, got %d", maxLambda)
	}
	if err := checkFiniteVec("response", f); err != nil {
		return err
	}
	return nil
}
