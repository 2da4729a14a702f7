// Package basis assembles the multi-dimensional orthonormal Hermite bases of
// the paper's Section II into design matrices for the regression solvers.
//
// Two representations of the K×M design matrix G (eq. (8)) are provided:
// a dense one for moderate sizes, and a lazy one that re-evaluates basis
// rows on demand so that the huge bases of the paper (M up to 10⁶) never
// have to be materialized. Both satisfy the Design interface the solvers in
// internal/core are written against.
package basis

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hermite"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// Basis is an ordered set of multi-dimensional Hermite basis functions over
// Dim independent standard-normal variables.
type Basis struct {
	// Dim is the number of input variables N.
	Dim int
	// Terms are the basis functions g₁…g_M in order.
	Terms []hermite.Term
	// Desc records how a systematically generated basis was constructed so
	// it can be serialized and rebuilt elsewhere. Zero for explicit term
	// lists built with New.
	Desc Descriptor

	maxOrder int
}

// New builds a Basis from an explicit term list over dim variables.
func New(dim int, terms []hermite.Term) *Basis {
	b := &Basis{Dim: dim, Terms: terms}
	for _, t := range terms {
		for _, vp := range t {
			if vp.Var < 0 || vp.Var >= dim {
				panic(fmt.Sprintf("basis: term %v references variable outside [0,%d)", t, dim))
			}
			if vp.Pow > b.maxOrder {
				b.maxOrder = vp.Pow
			}
		}
	}
	return b
}

// Linear returns the degree-1 basis over n variables (M = n+1).
func Linear(n int) *Basis {
	b := New(n, hermite.LinearTerms(n))
	b.Desc = Descriptor{Kind: KindLinear, Dim: n}
	return b
}

// Quadratic returns the total-degree-2 basis over n variables
// (M = 1 + n + n(n+1)/2).
func Quadratic(n int) *Basis {
	b := New(n, hermite.QuadraticTerms(n))
	b.Desc = Descriptor{Kind: KindQuadratic, Dim: n}
	return b
}

// TotalDegree returns the total-degree-deg basis over n variables.
func TotalDegree(n, deg int) *Basis {
	b := New(n, hermite.TotalDegreeTerms(n, deg))
	b.Desc = Descriptor{Kind: KindTotalDegree, Dim: n, Degree: deg}
	return b
}

// AutoDesign builds the design matrix view for the sampled points, choosing
// dense storage for moderate sizes and lazy re-evaluation beyond it (the
// paper-scale regime where G must never be materialized).
func AutoDesign(b *Basis, points [][]float64) Design {
	if len(points)*b.Size() <= denseLimit {
		return NewDenseDesign(b, points)
	}
	return NewLazyDesign(b, points)
}

// AutoColMajor is AutoDesign with the materialized regime stored
// column-major (NewColMajorDesign): the layout the solver engine's
// correlation sweep reads, built without a row-major intermediate. Values
// are bit-identical to AutoDesign's.
func AutoColMajor(b *Basis, points [][]float64) Design {
	if len(points)*b.Size() <= denseLimit {
		return NewColMajorDesign(b, points)
	}
	return NewLazyDesign(b, points)
}

// denseLimit is the K·M product up to which AutoDesign and AutoColMajor
// materialize G (8·denseLimit bytes).
const denseLimit = 48 << 20

// Size returns the number of basis functions M.
func (b *Basis) Size() int { return len(b.Terms) }

// EvalRow evaluates every basis function at the point y, writing the M
// values into dst (allocated when nil). It allocates a fresh Hermite table
// per call; hot loops should hold an Evaluator instead.
func (b *Basis) EvalRow(dst, y []float64) []float64 {
	return b.NewEvaluator().EvalRow(dst, y)
}

// Evaluator amortizes the per-variable Hermite value table across repeated
// row evaluations. It is not safe for concurrent use; create one per
// goroutine.
type Evaluator struct {
	b    *Basis
	herm []float64
}

// NewEvaluator returns a reusable row evaluator.
func (b *Basis) NewEvaluator() *Evaluator {
	return &Evaluator{b: b, herm: make([]float64, b.Dim*(b.maxOrder+1))}
}

// EvalRow evaluates every basis function at y into dst (allocated when nil).
// The table herm[v·(maxOrder+1)+p] = H̃ₚ(y[v]) is built once per call so each
// term costs only lookups and multiplies.
func (e *Evaluator) EvalRow(dst, y []float64) []float64 {
	b := e.b
	if len(y) != b.Dim {
		panic(fmt.Sprintf("basis: EvalRow point dimension %d, want %d", len(y), b.Dim))
	}
	if dst == nil {
		dst = make([]float64, len(b.Terms))
	}
	stride := b.maxOrder + 1
	for v := 0; v < b.Dim; v++ {
		hermite.Eval1DUpTo(e.herm[v*stride:(v+1)*stride], b.maxOrder, y[v])
	}
	for i, t := range b.Terms {
		p := 1.0
		for _, vp := range t {
			p *= e.herm[vp.Var*stride+vp.Pow]
		}
		dst[i] = p
	}
	return dst
}

// Eval evaluates the single basis function m at y.
func (b *Basis) Eval(m int, y []float64) float64 {
	return b.Terms[m].Eval(y)
}

// Design is the solver-facing view of the K×M design matrix G of eq. (8).
// Implementations may store G densely or evaluate it on the fly.
type Design interface {
	// Rows returns the number of sampling points K.
	Rows() int
	// Cols returns the number of basis functions M.
	Cols() int
	// Column writes basis vector G_m (eq. (7)) into dst (allocated when
	// nil) and returns it.
	Column(dst []float64, m int) []float64
	// MulTransVec computes dst = Gᵀ·x, the inner products of every basis
	// vector with x (the kernel of eqs. (14) and (18)). dst is allocated
	// when nil.
	MulTransVec(dst, x []float64) []float64
	// VisitRows streams the evaluated basis rows in order: fn is called once
	// per sampling point with the row index and the M basis values. The row
	// buffer is reused between calls — copy it if it must outlive fn. This
	// is the per-row primitive solvers use for whole-matrix passes (e.g.
	// column norms) that would otherwise cost M column materializations.
	VisitRows(fn func(k int, row []float64))
}

// SquaredColumnNorms accumulates Σ_k G[k][j]² into dst (allocated when nil)
// in ascending row order: one contiguous pass per column on a ColMajor
// design, a single row-streaming pass over any other. Both orders add the
// same terms in the same sequence, so the result does not depend on the
// storage.
func SquaredColumnNorms(d Design, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, d.Cols())
	}
	if c, ok := d.(*ColMajor); ok {
		for j := range dst {
			s := 0.0
			for _, v := range c.ColSlice(j) {
				s += v * v
			}
			dst[j] = s
		}
		return dst
	}
	for j := range dst {
		dst[j] = 0
	}
	d.VisitRows(func(_ int, row []float64) {
		for j, v := range row {
			dst[j] += v * v
		}
	})
	return dst
}

// DenseDesign stores G explicitly. Best when K·M is small enough to hold in
// memory; column access and transpose products are simple passes over it.
type DenseDesign struct {
	g *linalg.Matrix
}

// NewDenseDesign evaluates the basis at all points and stores the result.
func NewDenseDesign(b *Basis, points [][]float64) *DenseDesign {
	g := linalg.NewMatrix(len(points), b.Size())
	for k, y := range points {
		b.EvalRow(g.Row(k), y)
	}
	return &DenseDesign{g: g}
}

// DenseDesignFromMatrix wraps an existing matrix (rows = samples, cols =
// basis functions) as a Design. The matrix is used directly, not copied.
func DenseDesignFromMatrix(g *linalg.Matrix) *DenseDesign { return &DenseDesign{g: g} }

// Rows returns K.
func (d *DenseDesign) Rows() int { return d.g.Rows }

// Cols returns M.
func (d *DenseDesign) Cols() int { return d.g.Cols }

// Column copies basis vector m.
func (d *DenseDesign) Column(dst []float64, m int) []float64 { return d.g.Col(dst, m) }

// MulTransVec computes Gᵀ·x.
func (d *DenseDesign) MulTransVec(dst, x []float64) []float64 {
	return d.g.MulTransVec(dst, x)
}

// Matrix exposes the underlying dense matrix (for the LS solver, which
// factors G directly).
func (d *DenseDesign) Matrix() *linalg.Matrix { return d.g }

// VisitRows streams the stored rows.
func (d *DenseDesign) VisitRows(fn func(k int, row []float64)) {
	for k := 0; k < d.g.Rows; k++ {
		fn(k, d.g.Row(k))
	}
}

// LazyDesign evaluates rows of G on demand from the stored sampling points.
// Memory is O(K·N + M) instead of O(K·M); every MulTransVec re-evaluates the
// basis, trading time for space exactly as needed for the paper-scale
// experiments (M ≈ 2·10⁴…10⁶).
type LazyDesign struct {
	basis  *Basis
	points [][]float64
}

// NewLazyDesign wraps the basis and sampling points without materializing G.
func NewLazyDesign(b *Basis, points [][]float64) *LazyDesign {
	for i, p := range points {
		if len(p) != b.Dim {
			panic(fmt.Sprintf("basis: point %d has dimension %d, want %d", i, len(p), b.Dim))
		}
	}
	return &LazyDesign{basis: b, points: points}
}

// Rows returns K.
func (d *LazyDesign) Rows() int { return len(d.points) }

// Cols returns M.
func (d *LazyDesign) Cols() int { return d.basis.Size() }

// Column evaluates basis function m at every sampling point.
func (d *LazyDesign) Column(dst []float64, m int) []float64 {
	if dst == nil {
		dst = make([]float64, len(d.points))
	}
	t := d.basis.Terms[m]
	for k, y := range d.points {
		dst[k] = t.Eval(y)
	}
	return dst
}

// VisitRows evaluates and streams one basis row per sampling point.
func (d *LazyDesign) VisitRows(fn func(k int, row []float64)) {
	ev := d.basis.NewEvaluator()
	row := make([]float64, d.basis.Size())
	for k, y := range d.points {
		ev.EvalRow(row, y)
		fn(k, row)
	}
}

// MulTransVec computes Gᵀ·x by streaming one evaluated row at a time.
func (d *LazyDesign) MulTransVec(dst, x []float64) []float64 {
	if len(x) != len(d.points) {
		panic(fmt.Sprintf("basis: MulTransVec input length %d, want %d", len(x), len(d.points)))
	}
	m := d.basis.Size()
	if dst == nil {
		dst = make([]float64, m)
	}
	for j := range dst {
		dst[j] = 0
	}
	ev := d.basis.NewEvaluator()
	row := make([]float64, m)
	for k, y := range d.points {
		if x[k] == 0 {
			continue
		}
		ev.EvalRow(row, y)
		linalg.Axpy(x[k], row, dst)
	}
	return dst
}

var (
	_ Design = (*DenseDesign)(nil)
	_ Design = (*LazyDesign)(nil)
)

// GeneratedDesign regenerates its sampling points deterministically from a
// seed on every access instead of storing them: memory is O(M) regardless of
// K·N, which is what makes the paper's largest configurations (K = 25 000
// samples over N = 21 310 variables ⇒ 4 GB of stored points) tractable. The
// trade-off is recomputing N normal variates per row access. Use
// mc.SampleVirtual with the same seed to obtain matching responses.
type GeneratedDesign struct {
	basis *Basis
	k     int
	seed  int64
}

// NewGeneratedDesign creates a k-row virtual design over the basis.
func NewGeneratedDesign(b *Basis, k int, seed int64) *GeneratedDesign {
	if k <= 0 {
		panic(fmt.Sprintf("basis: GeneratedDesign needs positive rows, got %d", k))
	}
	return &GeneratedDesign{basis: b, k: k, seed: seed}
}

// Rows returns K.
func (d *GeneratedDesign) Rows() int { return d.k }

// Cols returns M.
func (d *GeneratedDesign) Cols() int { return d.basis.Size() }

// Column evaluates basis function m at every regenerated point, sharding
// the row regeneration across GOMAXPROCS goroutines.
func (d *GeneratedDesign) Column(dst []float64, m int) []float64 {
	if dst == nil {
		dst = make([]float64, d.k)
	}
	t := d.basis.Terms[m]
	workers := runtime.GOMAXPROCS(0)
	if workers > d.k {
		workers = d.k
	}
	if workers <= 1 {
		y := make([]float64, d.basis.Dim)
		for k := 0; k < d.k; k++ {
			rng.RowPoint(y, d.seed, k, d.basis.Dim)
			dst[k] = t.Eval(y)
		}
		return dst
	}
	var wg sync.WaitGroup
	chunk := (d.k + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > d.k {
			hi = d.k
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			y := make([]float64, d.basis.Dim)
			for k := lo; k < hi; k++ {
				rng.RowPoint(y, d.seed, k, d.basis.Dim)
				dst[k] = t.Eval(y)
			}
		}(lo, hi)
	}
	wg.Wait()
	return dst
}

// MulTransVec computes Gᵀ·x by streaming regenerated rows. Rows are
// independent, so the pass is sharded across GOMAXPROCS goroutines with
// per-worker accumulators — the dominant kernel of paper-scale fits.
func (d *GeneratedDesign) MulTransVec(dst, x []float64) []float64 {
	if len(x) != d.k {
		panic(fmt.Sprintf("basis: MulTransVec input length %d, want %d", len(x), d.k))
	}
	m := d.basis.Size()
	if dst == nil {
		dst = make([]float64, m)
	}
	for j := range dst {
		dst[j] = 0
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > d.k {
		workers = d.k
	}
	if workers <= 1 {
		d.accumRows(dst, x, 0, d.k)
		return dst
	}
	partial := make([][]float64, workers)
	var wg sync.WaitGroup
	chunk := (d.k + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > d.k {
			hi = d.k
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := make([]float64, m)
			d.accumRows(acc, x, lo, hi)
			partial[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	for _, acc := range partial {
		if acc != nil {
			linalg.Axpy(1, acc, dst)
		}
	}
	return dst
}

// VisitRows regenerates and streams one basis row per sampling point.
func (d *GeneratedDesign) VisitRows(fn func(k int, row []float64)) {
	ev := d.basis.NewEvaluator()
	row := make([]float64, d.basis.Size())
	y := make([]float64, d.basis.Dim)
	for k := 0; k < d.k; k++ {
		rng.RowPoint(y, d.seed, k, d.basis.Dim)
		ev.EvalRow(row, y)
		fn(k, row)
	}
}

// accumRows accumulates Σ x[k]·row(k) over rows [lo, hi) into dst.
func (d *GeneratedDesign) accumRows(dst, x []float64, lo, hi int) {
	ev := d.basis.NewEvaluator()
	row := make([]float64, d.basis.Size())
	y := make([]float64, d.basis.Dim)
	for k := lo; k < hi; k++ {
		if x[k] == 0 {
			continue
		}
		rng.RowPoint(y, d.seed, k, d.basis.Dim)
		ev.EvalRow(row, y)
		linalg.Axpy(x[k], row, dst)
	}
}

var _ Design = (*GeneratedDesign)(nil)
