package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
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
// fold is gathered from the copy; the "views" problem is below it, so only
// the column-major design gathers and the others run folds as row views.
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

// TestGatheredFoldMatchesSubsetCopy: a fold gathered from the one
// column-major copy equals the copy the engine used to make of the fold's
// row view, bit for bit.
func TestGatheredFoldMatchesSubsetCopy(t *testing.T) {
	b, pts, _ := cvProblem(30, 50, 97)
	d := basis.NewDenseDesign(b, pts)
	cm := basis.NewColMajor(d)
	var buf *basis.ColMajor
	for q := 0; q < 3; q++ {
		var rows []int
		for i := 0; i < d.Rows(); i++ {
			if i%3 != q {
				rows = append(rows, i)
			}
		}
		buf = cm.GatherRows(buf, rows)
		want := basis.NewColMajor(Subset(d, rows))
		for j := 0; j < want.Cols(); j++ {
			if !sameFloatBits(buf.ColSlice(j), want.ColSlice(j)) {
				t.Fatalf("fold %d column %d differs from NewColMajor(Subset)", q, j)
			}
		}
	}
}
