package basis

import (
	"fmt"

	"repro/internal/hermite"
	"repro/internal/linalg"
)

// colMajorBlock is how many columns share one backing slice in a ColMajor
// design. Blocked storage keeps any single allocation below
// colMajorBlock·K·8 bytes, so paper-scale dictionaries never ask the
// allocator for one monolithic K·M array, while each column stays fully
// contiguous — the property the correlation kernel's per-column dot products
// need to run at memory bandwidth.
const colMajorBlock = 256

// ColMajor stores a design matrix column-major in fixed-width column blocks.
// It is the cache-friendly substrate of the solver engine's Gᵀ·res sweep:
// row-major storage (DenseDesign) walks M-strided memory when a kernel
// consumes one column at a time, whereas here every column is one contiguous
// slice, so a column-sharded parallel sweep touches disjoint cache lines and
// needs no per-worker accumulators.
//
// Summation order per column is ascending row index — identical to the
// row-streaming MulTransVec implementations — so switching a solver to
// ColMajor storage changes performance, not results.
type ColMajor struct {
	rows, cols int
	blocks     [][]float64 // blocks[b] holds columns [b·colMajorBlock, …) column-contiguous
}

// NewColMajor materializes any design into column-major blocked storage with
// a single row-streaming pass. The copy costs one VisitRows sweep and K·M
// floats of memory; callers gate it on problem size (see core's engine
// policy) since a path fit amortizes the pass over its many correlation
// sweeps but a lazy paper-scale design must never be materialized.
func NewColMajor(d Design) *ColMajor {
	k := d.Rows()
	c := newColMajor(k, d.Cols())
	d.VisitRows(func(row int, vals []float64) {
		for j, v := range vals {
			c.blocks[j/colMajorBlock][(j%colMajorBlock)*k+row] = v
		}
	})
	return c
}

// newColMajor allocates zeroed k×m blocked storage.
func newColMajor(k, m int) *ColMajor {
	c := &ColMajor{rows: k, cols: m}
	c.blocks = make([][]float64, (m+colMajorBlock-1)/colMajorBlock)
	for b := range c.blocks {
		c.blocks[b] = make([]float64, c.blockWidth(b)*k)
	}
	return c
}

// evalTileRows is the row-tile height of NewColMajorDesign: a tile's
// Hermite tables take Dim·(maxOrder+1)·evalTileRows floats, and each column
// receives evalTileRows contiguous values per tile.
const evalTileRows = 64

// NewColMajorDesign evaluates the basis at all points straight into
// column-major storage, with no row-major intermediate. Each entry is the
// product Evaluator.EvalRow computes — 1.0 times the term's Hermite factors
// in term order — so the result is bit-identical to
// NewColMajor(NewDenseDesign(b, points)).
//
// Rows are processed in tiles: the tile's per-variable Hermite values are
// laid out factor-major, so every column of the tile is an elementwise
// product of contiguous factor vectors.
func NewColMajorDesign(b *Basis, points [][]float64) *ColMajor {
	k := len(points)
	c := newColMajor(k, b.Size())
	stride := b.maxOrder + 1
	herm := make([]float64, b.Dim*stride*evalTileRows)
	tab := make([]float64, stride)
	for lo := 0; lo < k; lo += evalTileRows {
		n := min(evalTileRows, k-lo)
		// herm[(v·stride+p)·n + i] = H̃ₚ(points[lo+i][v]).
		for i, y := range points[lo : lo+n] {
			if len(y) != b.Dim {
				panic(fmt.Sprintf("basis: point %d has dimension %d, want %d", lo+i, len(y), b.Dim))
			}
			for v, x := range y {
				hermite.Eval1DUpTo(tab, b.maxOrder, x)
				for p, h := range tab {
					herm[(v*stride+p)*n+i] = h
				}
			}
		}
		for j, t := range b.Terms {
			col := c.ColSlice(j)[lo : lo+n]
			for i := range col {
				col[i] = 1
			}
			for _, vp := range t {
				f := herm[(vp.Var*stride+vp.Pow)*n:][:n]
				for i := range col {
					col[i] *= f[i]
				}
			}
		}
	}
	return c
}

// GatherRows copies the given rows of c, in order, into a len(rows)×M
// column-major design and returns it. dst's storage is reused when it is
// large enough (pass nil to allocate), so a sequence of gathers — one per
// cross-validation fold — shares one buffer; each gather invalidates the
// previous result held in dst.
func (c *ColMajor) GatherRows(dst *ColMajor, rows []int) *ColMajor {
	n := len(rows)
	if dst == nil {
		dst = &ColMajor{}
	}
	dst.rows, dst.cols = n, c.cols
	if len(dst.blocks) != len(c.blocks) {
		dst.blocks = make([][]float64, len(c.blocks))
	}
	for b := range dst.blocks {
		w := c.blockWidth(b) * n
		if cap(dst.blocks[b]) < w {
			dst.blocks[b] = make([]float64, w)
		}
		dst.blocks[b] = dst.blocks[b][:w]
	}
	for j := 0; j < c.cols; j++ {
		src, out := c.ColSlice(j), dst.ColSlice(j)
		for i, r := range rows {
			out[i] = src[r]
		}
	}
	return dst
}

// blockWidth returns the number of columns stored in block b.
func (c *ColMajor) blockWidth(b int) int {
	w := c.cols - b*colMajorBlock
	if w > colMajorBlock {
		w = colMajorBlock
	}
	return w
}

// Rows returns K.
func (c *ColMajor) Rows() int { return c.rows }

// Cols returns M.
func (c *ColMajor) Cols() int { return c.cols }

// ColSlice returns the contiguous backing slice of column j without copying.
// The slice is read-only from the caller's perspective.
func (c *ColMajor) ColSlice(j int) []float64 {
	if j < 0 || j >= c.cols {
		panic(fmt.Sprintf("basis: ColSlice column %d outside [0,%d)", j, c.cols))
	}
	off := (j % colMajorBlock) * c.rows
	return c.blocks[j/colMajorBlock][off : off+c.rows]
}

// Column copies basis vector j into dst (allocated when nil).
func (c *ColMajor) Column(dst []float64, j int) []float64 {
	if dst == nil {
		dst = make([]float64, c.rows)
	}
	copy(dst, c.ColSlice(j))
	return dst
}

// MulTransVec computes dst = Gᵀ·x column by column: each dst[j] is one
// contiguous dot product. This is the serial form of the engine's
// correlation kernel.
func (c *ColMajor) MulTransVec(dst, x []float64) []float64 {
	if len(x) != c.rows {
		panic(fmt.Sprintf("basis: MulTransVec input length %d, want %d", len(x), c.rows))
	}
	if dst == nil {
		dst = make([]float64, c.cols)
	}
	c.MulTransVecRange(dst, x, 0, c.cols)
	return dst
}

// MulTransVecRange computes dst[j] = G_jᵀ·x for j in [lo, hi). It is the
// shard unit of the parallel correlation sweep: disjoint column ranges write
// disjoint dst entries, so workers need no synchronization beyond the final
// join.
func (c *ColMajor) MulTransVecRange(dst, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] = linalg.Dot(c.ColSlice(j), x)
	}
}

// VisitRows streams the rows in order, assembling each from the column
// blocks. Row access is the slow direction of this layout; it exists to
// satisfy the Design contract (subset views), not for hot loops.
func (c *ColMajor) VisitRows(fn func(k int, row []float64)) {
	row := make([]float64, c.cols)
	for k := 0; k < c.rows; k++ {
		for b, blk := range c.blocks {
			w := c.blockWidth(b)
			base := b * colMajorBlock
			for j := 0; j < w; j++ {
				row[base+j] = blk[j*c.rows+k]
			}
		}
		fn(k, row)
	}
}

var _ Design = (*ColMajor)(nil)
