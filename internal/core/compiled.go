package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/basis"
	"repro/internal/hermite"
)

// CompiledPredictor is a fitted model bound to its basis and pre-lowered
// into the flat evaluation form the serving hot path wants: the support's
// terms are resolved once into (slot, order) factor lists over a compact
// variable remap, so evaluating a point touches only the variables the
// support references and never walks the M-sized dictionary again. The
// per-point Hermite value table lives in a sync.Pool, so steady-state
// prediction — the cache-hit path of the rsmd serving layer — allocates
// nothing beyond the result slice.
//
// A CompiledPredictor is immutable after Compile and safe for concurrent
// use by any number of goroutines.
type CompiledPredictor struct {
	dim  int       // input dimension the basis expects
	coef []float64 // support coefficients, copied (detached from the Model)

	// used maps compact slot → original variable index (ascending). Only
	// these variables get Hermite tables.
	used []int
	// factors is the flattened factor list of every support term; term i
	// spans factors[offs[i]:offs[i+1]]. A term with no factors is the
	// constant basis function (product = 1).
	factors []compiledFactor
	offs    []int32

	maxOrder int // highest Hermite order any factor needs
	stride   int // maxOrder+1, the per-variable table width

	scratch sync.Pool // *[]float64 of len(used)*stride
}

// compiledFactor is one H̃_pow(y[used[slot]]) lookup of a term product.
type compiledFactor struct {
	slot int32 // compact variable slot (index into used)
	pow  int32 // Hermite order
}

// Compile lowers the model against the basis it was fit on. It fails when
// the basis does not match the model's dictionary size; the returned
// predictor is independent of later mutations to m.
func (m *Model) Compile(b *basis.Basis) (*CompiledPredictor, error) {
	if b.Size() != m.M {
		return nil, fmt.Errorf("core: basis size %d does not match model dictionary %d", b.Size(), m.M)
	}
	if err := validateModel(m); err != nil {
		return nil, err
	}
	cp := &CompiledPredictor{
		dim:  b.Dim,
		coef: append([]float64(nil), m.Coef...),
		offs: make([]int32, 1, len(m.Support)+1),
	}
	// First pass: find the touched variables and the highest order.
	touched := make([]bool, b.Dim)
	for _, idx := range m.Support {
		for _, vp := range b.Terms[idx] {
			touched[vp.Var] = true
			if vp.Pow > cp.maxOrder {
				cp.maxOrder = vp.Pow
			}
		}
	}
	slot := make([]int32, b.Dim)
	for v, ok := range touched {
		if ok {
			slot[v] = int32(len(cp.used))
			cp.used = append(cp.used, v)
		}
	}
	// Second pass: flatten every term into compact (slot, pow) factors.
	for _, idx := range m.Support {
		for _, vp := range b.Terms[idx] {
			cp.factors = append(cp.factors, compiledFactor{slot: slot[vp.Var], pow: int32(vp.Pow)})
		}
		cp.offs = append(cp.offs, int32(len(cp.factors)))
	}
	cp.stride = cp.maxOrder + 1
	tableLen := len(cp.used) * cp.stride
	cp.scratch.New = func() any {
		s := make([]float64, tableLen)
		return &s
	}
	return cp, nil
}

// Dim returns the input dimension the predictor expects per point.
func (cp *CompiledPredictor) Dim() int { return cp.dim }

// NNZ returns the number of support terms the predictor evaluates.
func (cp *CompiledPredictor) NNZ() int { return len(cp.coef) }

// Predict evaluates every point into dst (allocated when nil), sharding the
// batch across workers goroutines (≤ 0 means GOMAXPROCS) that each reuse a
// pooled Hermite value table. It fails on a dimension-mismatched point or a
// dst of the wrong length; on success it returns dst.
func (cp *CompiledPredictor) Predict(dst []float64, points [][]float64, workers int) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, len(points))
	}
	if len(dst) != len(points) {
		return nil, fmt.Errorf("core: predict dst length %d, want %d", len(dst), len(points))
	}
	for i, p := range points {
		if len(p) != cp.dim {
			return nil, fmt.Errorf("point %d has dimension %d, want %d", i, len(p), cp.dim)
		}
	}
	if len(points) == 0 {
		return dst, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers <= 1 {
		cp.predictRange(dst, points, 0, len(points))
		return dst, nil
	}
	var wg sync.WaitGroup
	chunk := (len(points) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(points) {
			hi = len(points)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cp.predictRange(dst, points, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return dst, nil
}

// predictRange evaluates points [lo, hi) with one pooled Hermite table —
// the unit of work Predict hands each worker.
func (cp *CompiledPredictor) predictRange(dst []float64, points [][]float64, lo, hi int) {
	hp := cp.scratch.Get().(*[]float64)
	herm := *hp
	for k := lo; k < hi; k++ {
		dst[k] = cp.eval(herm, points[k])
	}
	cp.scratch.Put(hp)
}

// eval is the per-point kernel behind Predict and PointEvaluator. The table
// herm[slot·stride+p] = H̃ₚ(y[used[slot]]) is refilled per point but spans
// only the support's variables, so each term costs lookups and multiplies.
// The recurrence, the factor order and the support-order sum are the ones
// basis.Evaluator.EvalRow uses, so the value matches a full-dictionary row
// dotted with the support bit for bit.
func (cp *CompiledPredictor) eval(herm, y []float64) float64 {
	stride := cp.stride
	for j, v := range cp.used {
		hermite.Eval1DUpTo(herm[j*stride:(j+1)*stride], cp.maxOrder, y[v])
	}
	s := 0.0
	for i, c := range cp.coef {
		p := 1.0
		for _, f := range cp.factors[cp.offs[i]:cp.offs[i+1]] {
			p *= herm[int(f.slot)*stride+int(f.pow)]
		}
		s += c * p
	}
	return s
}

// PointEvaluator evaluates a compiled predictor one point at a time with a
// Hermite table of its own, the support-only counterpart of
// basis.Evaluator. Streaming callers such as virtual Monte Carlo use it to
// evaluate each point as it is drawn, without allocating per point. It is
// not safe for concurrent use; give each goroutine its own.
type PointEvaluator struct {
	cp   *CompiledPredictor
	herm []float64
}

// NewEvaluator returns a reusable single-point evaluator.
func (cp *CompiledPredictor) NewEvaluator() *PointEvaluator {
	return &PointEvaluator{cp: cp, herm: make([]float64, len(cp.used)*cp.stride)}
}

// Eval returns the model's value at y. It panics on a dimension mismatch,
// a programmer error on this API.
func (e *PointEvaluator) Eval(y []float64) float64 {
	if len(y) != e.cp.dim {
		panic(fmt.Sprintf("core: Eval point dimension %d, want %d", len(y), e.cp.dim))
	}
	return e.cp.eval(e.herm, y)
}
