package core

import (
	"context"
	"fmt"

	"repro/internal/basis"
	"repro/internal/stats"
)

// subsetDesign exposes a row subset of an underlying design without copying
// it, by scattering/gathering through the row index map. Every
// cross-validation fold is one: a view of the one column-major design, or of
// a lazy paper-scale design past colMajorizeMax.
type subsetDesign struct {
	d    basis.Design
	cm   *basis.ColMajor // d, when it is column-major
	rows []int
}

// Rows returns the subset size.
func (s *subsetDesign) Rows() int { return len(s.rows) }

// Cols returns M of the inner design.
func (s *subsetDesign) Cols() int { return s.d.Cols() }

// Column gathers the subset rows of the inner design's column m.
func (s *subsetDesign) Column(dst []float64, m int) []float64 {
	var full []float64
	if s.cm != nil {
		full = s.cm.ColSlice(m)
	} else {
		full = s.d.Column(nil, m)
	}
	if dst == nil {
		dst = make([]float64, len(s.rows))
	}
	for i, r := range s.rows {
		dst[i] = full[r]
	}
	return dst
}

// squaredColumnNorms is basis.SquaredColumnNorms with a fast path for a row
// view of column-major storage: each column's subset entries are read in
// ascending row order, the same sum a gathered copy would add, without
// assembling rows from columns.
func squaredColumnNorms(d basis.Design, dst []float64) []float64 {
	s, ok := d.(*subsetDesign)
	if !ok || s.cm == nil {
		return basis.SquaredColumnNorms(d, dst)
	}
	if dst == nil {
		dst = make([]float64, d.Cols())
	}
	for j := range dst {
		col, sum := s.cm.ColSlice(j), 0.0
		for _, r := range s.rows {
			v := col[r]
			sum += v * v
		}
		dst[j] = sum
	}
	return dst
}

// VisitRows streams the inner design's rows, renumbering to subset indices
// and skipping rows outside the subset. One inner pass regardless of the
// subset size; the rows are ascending (see Subset), so one cursor matches
// them.
func (s *subsetDesign) VisitRows(fn func(k int, row []float64)) {
	i := 0
	s.d.VisitRows(func(k int, row []float64) {
		if i < len(s.rows) && s.rows[i] == k {
			fn(i, row)
			i++
		}
	})
}

// MulTransVec scatters x into full-length coordinates and delegates.
func (s *subsetDesign) MulTransVec(dst, x []float64) []float64 {
	if len(x) != len(s.rows) {
		panic(fmt.Sprintf("core: subset MulTransVec input length %d, want %d", len(x), len(s.rows)))
	}
	full := make([]float64, s.d.Rows())
	for i, r := range s.rows {
		full[r] = x[i]
	}
	return s.d.MulTransVec(dst, full)
}

// Subset returns a view of d restricted to the given rows, which must be
// strictly ascending indices of d.
func Subset(d basis.Design, rows []int) basis.Design {
	for i, r := range rows {
		if r < 0 || r >= d.Rows() || (i > 0 && r <= rows[i-1]) {
			panic(fmt.Sprintf("core: Subset rows must be strictly ascending in [0,%d), got %d at position %d", d.Rows(), r, i))
		}
	}
	cm, _ := d.(*basis.ColMajor)
	return &subsetDesign{d: d, cm: cm, rows: rows}
}

// gather copies f at the given rows.
func gather(f []float64, rows []int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f[r]
	}
	return out
}

// CVResult reports a cross-validated sparse fit (Section IV-C, Fig. 2).
type CVResult struct {
	// ErrCurve[λ-1] is the cross-validation error ε(λ) averaged over folds.
	ErrCurve []float64
	// FoldErr[q][λ-1] is ε_q(λ) for fold q.
	FoldErr [][]float64
	// BestLambda is the sparsity minimizing ErrCurve.
	BestLambda int
	// Model is the final model: the solver re-run on the full data set with
	// λ = BestLambda.
	Model *Model
}

// CrossValidate selects the sparsity level λ by Q-fold cross-validation and
// returns the model refit on all data with the chosen λ. Folds are
// interleaved (sample k goes to fold k mod Q); shuffle the samples
// beforehand when they are not already exchangeable.
func CrossValidate(fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	return CrossValidateCtx(context.Background(), fitter, d, f, folds, maxLambda)
}

// CrossValidateCtx is CrossValidate under a context: cancellation stops
// every fold's path fit and the final refit, mid-path for ContextFitter
// solvers, so an expired job deadline abandons the cross-validation
// promptly.
//
// The Q fold fits and the final refit run in lockstep (see lockstep.go):
// one correlation sweep over one column-major design serves every path's
// step. Each fold's design is a row view of it, and the held-out rows enter
// only at the sweep, as +0 entries of the fold's residual, so every result
// equals that of running the Q+1 paths one after another on gathered
// copies, bit for bit. On failure the error is the one the sequential order
// would report first: the lowest failing fold, else the final refit.
func CrossValidateCtx(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	if err := checkProblem(d, f, maxLambda); err != nil {
		return nil, err
	}
	k := d.Rows()
	if folds < 2 {
		return nil, fmt.Errorf("core: cross-validation needs ≥ 2 folds, got %d", folds)
	}
	if folds > k {
		return nil, fmt.Errorf("core: %d folds exceed %d samples", folds, k)
	}

	// At most one column-major copy per cross-validation: d itself when it
	// is already column-major, else one copy when the engine would make
	// one. Past colMajorizeMax every path sweeps through the design's own
	// MulTransVec instead. The copy does not depend on the worker count, so
	// neither do the results: every sweep sums each column in ascending row
	// order.
	cm, _ := d.(*basis.ColMajor)
	if cm == nil && worthColMajor(d) {
		cm = basis.NewColMajor(d)
	}
	design := d
	if cm != nil {
		design = cm
	}
	lanes := make([]*cvLane, folds+1)
	testRows := make([][]int, folds)
	for q := 0; q < folds; q++ {
		var trainRows []int
		for i := 0; i < k; i++ {
			if i%folds == q {
				testRows[q] = append(testRows[q], i)
			} else {
				trainRows = append(trainRows, i)
			}
		}
		// Fold fits run on row subsets, so an exact checkpoint does not apply
		// (its rows are the full data set) and a capture plan must not race
		// across folds — scrub both. A warm start survives: replay is valid
		// on any data and the folds are the bulk of a refine's speedup.
		foldCtx := WithCheckpointPlan(WithResumeCheckpoint(ctx, nil), nil)
		lanes[q] = newCVLane(foldCtx, q, fmt.Sprintf("cv-fold-%d", q), Subset(design, trainRows), gather(f, trainRows), cm)
	}
	// The final path is fit to maxLambda rather than BestLambda because
	// batch solvers (StOMP, CD) admit several bases per step: capping
	// admission at BestLambda could truncate a batch, whereas indexing the
	// full path returns the same model the folds scored. So it needs no fold
	// result and runs in the same lockstep.
	lanes[folds] = newCVLane(ctx, folds, "final", design, f, cm)
	if failed, err := runLockstep(ctx, fitter, lanes, cm, ResolveFitWorkers(FitWorkersFromContext(ctx)), maxLambda); err != nil {
		if failed == folds {
			return nil, fmt.Errorf("core: final refit: %w", err)
		}
		return nil, fmt.Errorf("core: cross-validation fold %d: %w", failed, err)
	}

	result := &CVResult{
		ErrCurve: make([]float64, maxLambda),
		FoldErr:  make([][]float64, folds),
	}
	for q := 0; q < folds; q++ {
		path := lanes[q].path
		preds := scoreHeldOut(path, d, cm, testRows[q])
		testF := gather(f, testRows[q])
		foldErr := make([]float64, maxLambda)
		for lam := 1; lam <= maxLambda; lam++ {
			// Paths may terminate early; reuse the last available model.
			idx := min(lam, path.Len()) - 1
			foldErr[lam-1] = stats.RelativeRMSError(preds[idx], testF)
		}
		result.FoldErr[q] = foldErr
		for i, e := range foldErr {
			result.ErrCurve[i] += e
		}
	}
	best, bestErr := 0, 0.0
	for i := range result.ErrCurve {
		result.ErrCurve[i] /= float64(folds)
		if i == 0 || result.ErrCurve[i] < bestErr {
			best, bestErr = i+1, result.ErrCurve[i]
		}
	}
	result.BestLambda = best
	final := lanes[folds].path
	result.Model = final.Models[min(best, final.Len())-1]
	return result, nil
}

// scoreHeldOut predicts the held-out rows with every model of a fold's path:
// preds[mi][t] = Σᵢ Coefᵢ·G[testRows[t]][Supportᵢ], summed in support order.
// With a column-major copy the support columns are read directly; otherwise
// ONE streaming pass over the held-out rows evaluates each row once and
// dots it with every model — per-model Predict calls would materialize each
// support column separately, O(λ²) column evaluations per fold, which is
// prohibitive on regenerating designs. Both forms add the same products in
// the same order per row.
func scoreHeldOut(path *Path, d basis.Design, cm *basis.ColMajor, testRows []int) [][]float64 {
	preds := make([][]float64, path.Len())
	for i := range preds {
		preds[i] = make([]float64, len(testRows))
	}
	if cm != nil {
		for mi, model := range path.Models {
			p := preds[mi]
			for i, idx := range model.Support {
				c, col := model.Coef[i], cm.ColSlice(idx)
				for t, r := range testRows {
					p[t] += c * col[r]
				}
			}
		}
		return preds
	}
	Subset(d, testRows).VisitRows(func(k int, row []float64) {
		for mi, model := range path.Models {
			s := 0.0
			for i, idx := range model.Support {
				s += model.Coef[i] * row[idx]
			}
			preds[mi][k] = s
		}
	})
	return preds
}
