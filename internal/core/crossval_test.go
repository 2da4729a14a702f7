package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

func TestCrossValidationFoldsPartition(t *testing.T) {
	// Fig. 2 reproduction: Q-fold CV must put every sample in exactly one
	// test fold and Q−1 training folds. We verify through the fold geometry
	// used by CrossValidate (interleaved assignment).
	const k, q = 23, 4
	seen := make([]int, k)
	for fold := 0; fold < q; fold++ {
		for i := 0; i < k; i++ {
			if i%q == fold {
				seen[i]++
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("sample %d appears in %d test folds, want 1", i, c)
		}
	}
}

func TestCrossValidationFindsTrueSparsity(t *testing.T) {
	// Noisy 3-sparse signal: the CV error curve should bottom out at or near
	// λ=3 and the final model must contain the true support.
	support := []int{4, 15, 33}
	coefs := []float64{2, -1.5, 1}
	_, d, f, _ := synthProblem(70, 40, 160, false, support, coefs, 0.05)

	res, err := CrossValidate(&OMP{}, d, f, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLambda < 3 || res.BestLambda > 6 {
		t.Errorf("BestLambda = %d, want ≈3 (curve %v)", res.BestLambda, res.ErrCurve)
	}
	got := make(map[int]bool)
	for _, s := range res.Model.Support {
		got[s] = true
	}
	for _, s := range support {
		if !got[s] {
			t.Errorf("true basis %d missing from CV model support %v", s, res.Model.Support)
		}
	}
}

func TestCrossValidationErrCurveShape(t *testing.T) {
	// With strong noise the error curve must eventually rise again
	// (over-fitting past the true sparsity) — the trade-off of Section III.
	support := []int{2, 9}
	coefs := []float64{3, -2}
	_, d, f, _ := synthProblem(71, 30, 90, false, support, coefs, 0.4)
	res, err := CrossValidate(&OMP{}, d, f, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	minErr, maxLaterErr := math.Inf(1), 0.0
	minAt := 0
	for i, e := range res.ErrCurve {
		if e < minErr {
			minErr, minAt = e, i
		}
	}
	for i := minAt + 1; i < len(res.ErrCurve); i++ {
		if res.ErrCurve[i] > maxLaterErr {
			maxLaterErr = res.ErrCurve[i]
		}
	}
	if maxLaterErr <= minErr {
		t.Errorf("CV curve never rises after its minimum (min %g, later max %g): over-fitting undetected", minErr, maxLaterErr)
	}
}

func TestCrossValidationFoldErrDimensions(t *testing.T) {
	_, d, f, _ := synthProblem(72, 10, 40, false, []int{1}, []float64{1}, 0.1)
	res, err := CrossValidate(&OMP{}, d, f, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldErr) != 5 {
		t.Fatalf("FoldErr has %d folds, want 5", len(res.FoldErr))
	}
	for q, fe := range res.FoldErr {
		if len(fe) != 6 {
			t.Errorf("fold %d has %d λ entries, want 6", q, len(fe))
		}
	}
	// ErrCurve must be the fold average.
	for lam := 0; lam < 6; lam++ {
		sum := 0.0
		for q := 0; q < 5; q++ {
			sum += res.FoldErr[q][lam]
		}
		if math.Abs(res.ErrCurve[lam]-sum/5) > 1e-12 {
			t.Errorf("ErrCurve[%d] = %g, want fold mean %g", lam, res.ErrCurve[lam], sum/5)
		}
	}
}

func TestCrossValidationInputValidation(t *testing.T) {
	_, d, f, _ := synthProblem(73, 5, 12, false, []int{0}, []float64{1}, 0)
	if _, err := CrossValidate(&OMP{}, d, f, 1, 3); err == nil {
		t.Error("folds < 2 must error")
	}
	if _, err := CrossValidate(&OMP{}, d, f, 13, 3); err == nil {
		t.Error("folds > samples must error")
	}
	if _, err := CrossValidate(&OMP{}, d, f, 4, 0); err == nil {
		t.Error("maxLambda < 1 must error")
	}
}

func TestCrossValidationWorksWithAllPathFitters(t *testing.T) {
	support := []int{3, 11}
	coefs := []float64{2, -1}
	_, d, f, _ := synthProblem(74, 25, 100, false, support, coefs, 0.05)
	for _, fitter := range []PathFitter{&OMP{}, &STAR{}, &LAR{}, &LAR{Lasso: true, Refit: true}} {
		res, err := CrossValidate(fitter, d, f, 4, 8)
		if err != nil {
			t.Errorf("%s: %v", fitter.Name(), err)
			continue
		}
		got := make(map[int]bool)
		for _, s := range res.Model.Support {
			got[s] = true
		}
		if !got[3] || !got[11] {
			t.Errorf("%s: CV model support %v misses the true support", fitter.Name(), res.Model.Support)
		}
	}
}

// cvProblem draws k seeded normal points over a quadratic basis in dim
// variables and a noisy 4-sparse response.
func cvProblem(dim, k int, seed int64) (*basis.Basis, [][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	b := basis.Quadratic(dim)
	pts := make([][]float64, k)
	f := make([]float64, k)
	row := make([]float64, b.Size())
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
		b.EvalRow(row, pts[i])
		f[i] = 2*row[1] - 1.5*row[dim/2] + 0.8*row[dim+3] + 1.2*row[b.Size()-1] + 0.05*r.NormFloat64()
	}
	return b, pts, f
}

// storageKinds are the design representations cross-validation must not
// distinguish.
var storageKinds = []string{"dense", "colmajor", "lazy"}

func storageDesign(kind string, b *basis.Basis, pts [][]float64) basis.Design {
	switch kind {
	case "dense":
		return basis.NewDenseDesign(b, pts)
	case "colmajor":
		return basis.NewColMajorDesign(b, pts)
	default:
		return basis.NewLazyDesign(b, pts)
	}
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffCV reports the first difference between two cross-validation results,
// compared bit for bit, or "" when they are identical.
func diffCV(got, want *CVResult) string {
	switch {
	case got.BestLambda != want.BestLambda:
		return fmt.Sprintf("BestLambda %d, want %d", got.BestLambda, want.BestLambda)
	case !sameFloatBits(got.ErrCurve, want.ErrCurve):
		return fmt.Sprintf("ErrCurve %v, want %v", got.ErrCurve, want.ErrCurve)
	case fmt.Sprint(got.Model.Support) != fmt.Sprint(want.Model.Support):
		return fmt.Sprintf("support %v, want %v", got.Model.Support, want.Model.Support)
	case !sameFloatBits(got.Model.Coef, want.Model.Coef):
		return fmt.Sprintf("coef %v, want %v", got.Model.Coef, want.Model.Coef)
	}
	for q := range want.FoldErr {
		if !sameFloatBits(got.FoldErr[q], want.FoldErr[q]) {
			return fmt.Sprintf("FoldErr[%d] %v, want %v", q, got.FoldErr[q], want.FoldErr[q])
		}
	}
	return ""
}

// TestCrossValidateStorageAndWorkersBitIdentical: the published λ, CV
// error and model must not depend on how the design is stored or on the
// sweep's worker count. The "copied" problem is inside the engine's
// column-major window, so dense and lazy designs are copied once and every
// path is swept in lockstep over the copy; the "views" problem is below it,
// so only the column-major design is, and the others sweep each fold
// through their own MulTransVec.
func TestCrossValidateStorageAndWorkersBitIdentical(t *testing.T) {
	for _, pc := range []struct {
		name   string
		dim, k int
	}{{"copied", 30, 96}, {"views", 8, 40}} {
		b, pts, f := cvProblem(pc.dim, pc.k, 83)
		for _, solver := range []string{"omp", "lar", "lasso", "star", "stomp", "cd"} {
			var ref *CVResult
			for _, kind := range storageKinds {
				for _, workers := range []int{1, 2} {
					fitter, err := SolverByName(solver)
					if err != nil {
						t.Fatal(err)
					}
					ctx := WithFitWorkers(context.Background(), workers)
					cv, err := CrossValidateCtx(ctx, fitter, storageDesign(kind, b, pts), f, 4, 10)
					if err != nil {
						t.Fatalf("%s/%s %s workers=%d: %v", pc.name, solver, kind, workers, err)
					}
					if ref == nil {
						ref = cv
					} else if d := diffCV(cv, ref); d != "" {
						t.Errorf("%s/%s %s workers=%d vs dense workers=1: %s", pc.name, solver, kind, workers, d)
					}
				}
			}
		}
	}
}

// TestCrossValidateCheckpointAndWarmStartStorageIndependent runs the fit
// job's captured-checkpoint CV and the refine job's warm-start + exact-resume
// CV over every storage and worker count: the captured state and the
// refined result must match bit for bit.
func TestCrossValidateCheckpointAndWarmStartStorageIndependent(t *testing.T) {
	b, pts, f := cvProblem(30, 120, 89)
	const parentK = 96
	var refCK []byte
	var refGrown *CVResult
	for _, kind := range storageKinds {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s workers=%d", kind, workers)
			ctx := WithFitWorkers(context.Background(), workers)
			plan := &CheckpointPlan{}
			parent, err := CrossValidateCtx(WithCheckpointPlan(ctx, plan), &OMP{}, storageDesign(kind, b, pts[:parentK]), f[:parentK], 4, 10)
			if err != nil {
				t.Fatalf("%s parent: %v", label, err)
			}
			ck, err := json.Marshal(plan.CK)
			if err != nil {
				t.Fatal(err)
			}
			rctx := WithResumeCheckpoint(WithWarmStart(ctx, parent.Model), plan.CK)
			grown, err := CrossValidateCtx(WithCheckpointPlan(rctx, &CheckpointPlan{}), &OMP{}, storageDesign(kind, b, pts), f, 4, 10)
			if err != nil {
				t.Fatalf("%s refine: %v", label, err)
			}
			if refCK == nil {
				refCK, refGrown = ck, grown
				continue
			}
			if string(ck) != string(refCK) {
				t.Errorf("%s: captured checkpoint differs from dense workers=1", label)
			}
			if d := diffCV(grown, refGrown); d != "" {
				t.Errorf("%s: warm refine vs dense workers=1: %s", label, d)
			}
		}
	}
}

// TestSubsetOfColMajorMatchesCopy: a fold's row view of the column-major
// design reads the same columns and column norms as a column-major copy of
// the fold, bit for bit — the fast paths the fold fits run on.
func TestSubsetOfColMajorMatchesCopy(t *testing.T) {
	b, pts, _ := cvProblem(30, 50, 97)
	d := basis.NewDenseDesign(b, pts)
	cm := basis.NewColMajor(d)
	for q := 0; q < 3; q++ {
		var rows []int
		for i := 0; i < d.Rows(); i++ {
			if i%3 != q {
				rows = append(rows, i)
			}
		}
		view := Subset(cm, rows)
		want := basis.NewColMajor(Subset(d, rows))
		for j := 0; j < want.Cols(); j++ {
			if !sameFloatBits(view.Column(nil, j), want.ColSlice(j)) {
				t.Fatalf("fold %d column %d differs from NewColMajor(Subset)", q, j)
			}
		}
		if !sameFloatBits(squaredColumnNorms(view, nil), basis.SquaredColumnNorms(want, nil)) {
			t.Fatalf("fold %d column norms differ from the copy's", q)
		}
	}
}

// sequentialCV is the cross-validation driver as it was before the lockstep
// one, kept as the reference: each fold's training rows are gathered into a
// column-major copy, and the Q fold paths and the final path run one after
// another on one shared engine.
func sequentialCV(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, folds, maxLambda int) (*CVResult, error) {
	k := d.Rows()
	result := &CVResult{ErrCurve: make([]float64, maxLambda), FoldErr: make([][]float64, folds)}
	eng := NewEngine(FitWorkersFromContext(ctx))
	cm, _ := d.(*basis.ColMajor)
	if cm == nil && worthColMajor(d) {
		cm = basis.NewColMajor(d)
	}
	for q := 0; q < folds; q++ {
		var trainRows, testRows []int
		for i := 0; i < k; i++ {
			if i%folds == q {
				testRows = append(testRows, i)
			} else {
				trainRows = append(trainRows, i)
			}
		}
		trainD := Subset(d, trainRows)
		if cm != nil {
			trainD = basis.NewColMajor(Subset(cm, trainRows))
		}
		foldCtx := WithFitStage(WithCheckpointPlan(WithResumeCheckpoint(ctx, nil), nil), fmt.Sprintf("cv-fold-%d", q))
		path, err := fitPathWithEngine(foldCtx, eng, fitter, trainD, gather(f, trainRows), maxLambda)
		if err != nil {
			return nil, fmt.Errorf("core: cross-validation fold %d: %w", q, err)
		}
		preds := scoreHeldOut(path, d, cm, testRows)
		testF := gather(f, testRows)
		result.FoldErr[q] = make([]float64, maxLambda)
		for lam := 1; lam <= maxLambda; lam++ {
			e := stats.RelativeRMSError(preds[min(lam, path.Len())-1], testF)
			result.FoldErr[q][lam-1] = e
			result.ErrCurve[lam-1] += e
		}
	}
	for i := range result.ErrCurve {
		result.ErrCurve[i] /= float64(folds)
		if i == 0 || result.ErrCurve[i] < result.ErrCurve[result.BestLambda-1] {
			result.BestLambda = i + 1
		}
	}
	finalD := d
	if cm != nil {
		finalD = cm
	}
	path, err := fitPathWithEngine(WithFitStage(ctx, "final"), eng, fitter, finalD, f, maxLambda)
	if err != nil {
		return nil, fmt.Errorf("core: final refit: %w", err)
	}
	result.Model = path.Models[min(result.BestLambda, path.Len())-1]
	return result, nil
}

// TestCrossValidateMatchesSequentialReference pins the lockstep driver to
// the sequential, gathered one, bit for bit, for every solver, storage,
// worker count and fold count. The "copied" problem is inside the engine's
// column-major window, so every storage runs the lockstep kernel; the
// "views" problem is below it, so dense and lazy designs sweep through their
// own MulTransVec; in "short" λ exceeds a two-fold training set, so the fold
// paths end before the final one.
func TestCrossValidateMatchesSequentialReference(t *testing.T) {
	for _, pc := range []struct {
		name           string
		dim, k, lambda int
		folds          []int
	}{
		{"copied", 30, 96, 10, []int{2, 4, 5}},
		{"views", 8, 40, 8, []int{2, 4, 5}},
		{"short", 8, 30, 20, []int{2}},
	} {
		b, pts, f := cvProblem(pc.dim, pc.k, 101)
		for _, solver := range []string{"omp", "lar", "lasso", "star", "stomp", "cd"} {
			for _, kind := range storageKinds {
				for _, workers := range []int{1, 3} {
					for _, folds := range pc.folds {
						label := fmt.Sprintf("%s/%s %s workers=%d Q=%d", pc.name, solver, kind, workers, folds)
						fitter, err := SolverByName(solver)
						if err != nil {
							t.Fatal(err)
						}
						ctx := WithFitWorkers(context.Background(), workers)
						d := storageDesign(kind, b, pts)
						want, wantErr := sequentialCV(ctx, fitter, d, f, folds, pc.lambda)
						got, err := CrossValidateCtx(ctx, fitter, d, f, folds, pc.lambda)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Errorf("%s: error %v, want %v", label, err, wantErr)
							continue
						}
						if err != nil {
							continue
						}
						if d := diffCV(got, want); d != "" {
							t.Errorf("%s: %s", label, d)
						}
					}
				}
			}
		}
	}
}

// failAtEnd fails the named stage's path after it has run to its end, so
// a low fold fails later in the lockstep than a higher one.
type failAtEnd struct {
	ContextFitter
	stage string
}

func (w failAtEnd) FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	path, err := w.ContextFitter.FitPathCtx(fc, d, f, maxLambda)
	if stage, _ := fc.ctx.Value(stageCtxKey).(string); err == nil && stage == w.stage {
		err = fmt.Errorf("%s failed at its end", w.stage)
	}
	return path, err
}

// TestCrossValidateReportsLowestFailingFold: whatever order the paths fail
// in under lockstep, the error is the one the sequential order reports
// first — the lowest failing fold, and the final refit only when every fold
// succeeded.
func TestCrossValidateReportsLowestFailingFold(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	b, pts, f := cvProblem(30, 96, 103)
	d := basis.NewColMajorDesign(b, pts)
	injected := fmt.Errorf("%w: test", faultinject.ErrInjected)
	faultinject.Arm("core.cv-fold-2", faultinject.Fault{Err: injected})
	faultinject.Arm("core.final", faultinject.Fault{Err: injected})
	_, err := CrossValidate(&OMP{}, d, f, 4, 6)
	if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "cross-validation fold 2:") {
		t.Fatalf("err = %v, want fold 2's injected fault", err)
	}
	// Fold 0 fails after its last step, long after fold 2 failed at its
	// first: fold 0 still wins, as it would running first.
	_, err = CrossValidate(failAtEnd{&OMP{}, "cv-fold-0"}, d, f, 4, 6)
	if err == nil || !strings.Contains(err.Error(), "cross-validation fold 0: cv-fold-0 failed at its end") {
		t.Fatalf("err = %v, want fold 0's failure", err)
	}
	faultinject.Reset()
	faultinject.Arm("core.final", faultinject.Fault{Err: injected})
	_, err = CrossValidate(&OMP{}, d, f, 4, 6)
	if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "final refit:") {
		t.Fatalf("err = %v, want the final refit's injected fault", err)
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base and reports whether it did.
func waitGoroutines(base int) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= base {
			return true
		}
	}
	return false
}

// TestCrossValidatePanicReachesCaller: a panic inside one path is re-raised
// on the caller's goroutine, where the serving layer's recovery sees it, and
// no path goroutine outlives the call.
func TestCrossValidatePanicReachesCaller(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	b, pts, f := cvProblem(30, 96, 107)
	d := basis.NewColMajorDesign(b, pts)
	base := runtime.NumGoroutine()
	faultinject.Arm("core.cv-fold-1", faultinject.Fault{Panic: true})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "core.cv-fold-1") {
				t.Errorf("recovered %v, want fold 1's injected panic", r)
			}
		}()
		CrossValidate(&LAR{}, d, f, 4, 6)
	}()
	if !waitGoroutines(base) {
		t.Fatalf("%d goroutines after the panic, want %d", runtime.NumGoroutine(), base)
	}
}

// TestCrossValidateCancelMidway cancels from inside the observer, mid-CV:
// the call returns context.Canceled within a step of every live path, and
// every path goroutine exits.
func TestCrossValidateCancelMidway(t *testing.T) {
	b, pts, f := cvProblem(30, 96, 109)
	d := basis.NewColMajorDesign(b, pts)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, after := 0, 0
	ctx = WithFitObserver(ctx, func(FitEvent) {
		events++
		if events == 12 {
			cancel()
		} else if events > 12 {
			after++
		}
	})
	_, err := CrossValidateCtx(ctx, &OMP{}, d, f, 4, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after > 4 {
		t.Errorf("%d events after the cancel, want at most one per other path", after)
	}
	if !waitGoroutines(base) {
		t.Fatalf("%d goroutines after the cancel, want %d", runtime.NumGoroutine(), base)
	}
}

// TestCrossValidateEventOrderDeterministic: the interleaved event stream is
// a function of the inputs, and each stage numbers its iterations from 1.
func TestCrossValidateEventOrderDeterministic(t *testing.T) {
	b, pts, f := cvProblem(30, 96, 113)
	d := basis.NewColMajorDesign(b, pts)
	run := func() []string {
		var seq []string
		ctx := WithFitObserver(WithFitWorkers(context.Background(), 3), func(ev FitEvent) {
			seq = append(seq, fmt.Sprintf("%s/%d/%d/%d/%x", ev.Stage, ev.Iter, ev.Basis, ev.Active, math.Float64bits(ev.Residual)))
		})
		if _, err := CrossValidateCtx(ctx, &LAR{Lasso: true}, d, f, 4, 10); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	first := run()
	if second := run(); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("event sequences differ:\n%v\n%v", first, second)
	}
	iters := make(map[string]int)
	for _, ev := range first {
		var stage string
		var iter int
		fmt.Sscanf(strings.ReplaceAll(ev, "/", " "), "%s %d", &stage, &iter)
		if iter != iters[stage]+1 {
			t.Fatalf("%s: iteration %d follows %d", stage, iter, iters[stage])
		}
		iters[stage] = iter
	}
	if len(iters) != 5 {
		t.Fatalf("stages %v, want 4 folds and final", iters)
	}
}
