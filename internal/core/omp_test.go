package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/basis"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// synthProblem builds a synthetic sparse regression problem: a Hermite basis
// over n standard-normal variables, k Monte Carlo points, and a response
// generated by a known sparse coefficient vector plus optional noise.
func synthProblem(seed int64, n, k int, quadratic bool, support []int, coefs []float64, noise float64) (*basis.Basis, basis.Design, []float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	var b *basis.Basis
	if quadratic {
		b = basis.Quadratic(n)
	} else {
		b = basis.Linear(n)
	}
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = make([]float64, n)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
	}
	d := basis.NewDenseDesign(b, pts)
	alpha := make([]float64, b.Size())
	for i, s := range support {
		alpha[s] = coefs[i]
	}
	f := make([]float64, k)
	row := make([]float64, b.Size())
	for i, y := range pts {
		b.EvalRow(row, y)
		f[i] = linalg.Dot(row, alpha) + noise*r.NormFloat64()
	}
	return b, d, f, alpha
}

func TestOMPExactRecoveryNoiseless(t *testing.T) {
	// 100-dim linear basis (M=101), 5 non-zeros, K=60 samples: K << M but
	// K = O(P·log M), the regime of Tropp & Gilbert.
	support := []int{3, 17, 42, 77, 95}
	coefs := []float64{2.0, -1.5, 0.8, 3.2, -0.6}
	_, d, f, alpha := synthProblem(31, 100, 60, false, support, coefs, 0)

	model, err := (&OMP{}).Fit(d, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := model.Dense()
	for i := range alpha {
		if math.Abs(got[i]-alpha[i]) > 1e-8 {
			t.Errorf("α[%d] = %g, want %g", i, got[i], alpha[i])
		}
	}
	sorted := model.SortedSupport()
	for i, s := range support {
		if sorted[i] != s {
			t.Errorf("support = %v, want %v", sorted, support)
			break
		}
	}
}

func TestOMPRecoveryWithNoise(t *testing.T) {
	support := []int{1, 10, 33}
	coefs := []float64{1.0, -2.0, 0.7}
	_, d, f, _ := synthProblem(32, 50, 120, false, support, coefs, 0.02)
	model, err := (&OMP{}).Fit(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := model.SortedSupport()
	if len(sorted) != 3 || sorted[0] != 1 || sorted[1] != 10 || sorted[2] != 33 {
		t.Errorf("support = %v, want %v", sorted, support)
	}
	for i, idx := range model.Support {
		var want float64
		for j, s := range support {
			if s == idx {
				want = coefs[j]
			}
		}
		if math.Abs(model.Coef[i]-want) > 0.05 {
			t.Errorf("coef for basis %d = %g, want ≈%g", idx, model.Coef[i], want)
		}
	}
}

// TestOMPTwoVectorGeometry reproduces the Fig. 1 walkthrough: with two basis
// vectors where G2 is more correlated with F, OMP selects G2 first, its
// residual is orthogonal to G2, and the second step selects G1.
func TestOMPTwoVectorGeometry(t *testing.T) {
	// Hand-built 3-sample design with two columns.
	g := linalg.NewMatrixFrom([][]float64{
		{1.0, 0.9},
		{0.0, 0.5},
		{0.2, 0.1},
	})
	d := basis.DenseDesignFromMatrix(g)
	// F mostly along column 1 (index 1).
	f := []float64{1.8, 1.0, 0.25}

	path, err := (&OMP{}).FitPath(d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() != 2 {
		t.Fatalf("path length %d, want 2", path.Len())
	}
	first := path.Models[0]
	if len(first.Support) != 1 || first.Support[0] != 1 {
		t.Fatalf("first selection = %v, want [1] (the more correlated vector)", first.Support)
	}
	// Residual after step 1 must be orthogonal to the selected column.
	res := linalg.Sub(nil, f, first.Predict(d))
	col1 := d.Column(nil, 1)
	if dot := linalg.Dot(res, col1); math.Abs(dot) > 1e-12 {
		t.Errorf("residual not orthogonal to selected basis: %g", dot)
	}
	second := path.Models[1]
	if len(second.Support) != 2 || second.Support[1] != 0 {
		t.Fatalf("second selection = %v, want [1 0]", second.Support)
	}
	// With both columns active on a 2-column dictionary, the residual is the
	// LS residual: orthogonal to both columns.
	res2 := linalg.Sub(nil, f, second.Predict(d))
	col0 := d.Column(nil, 0)
	if math.Abs(linalg.Dot(res2, col0)) > 1e-12 || math.Abs(linalg.Dot(res2, col1)) > 1e-12 {
		t.Error("final residual not orthogonal to the active columns")
	}
}

func TestOMPRefitsEarlierCoefficients(t *testing.T) {
	// The paper stresses that α_s1 from step 1 (eq. 16) generally differs
	// from α_s1 after step 2 (eq. 20) because basis vectors are not
	// orthogonal under random sampling. Build correlated columns and verify.
	g := linalg.NewMatrixFrom([][]float64{
		{1.0, 0.8},
		{0.9, 0.7},
		{0.1, 0.6},
		{0.0, 0.3},
	})
	d := basis.DenseDesignFromMatrix(g)
	f := []float64{1.7, 1.5, 0.8, 0.4}
	path, err := (&OMP{}).FitPath(d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() != 2 {
		t.Fatalf("path length %d, want 2", path.Len())
	}
	firstSel := path.Models[0].Support[0]
	c1 := path.Models[0].Coef[0]
	c2 := path.Models[1].Coefficient(firstSel)
	if math.Abs(c1-c2) < 1e-9 {
		t.Errorf("coefficient was not re-fit: step1 %g, step2 %g", c1, c2)
	}
}

func TestOMPFullSupportMatchesLS(t *testing.T) {
	_, d, f, _ := synthProblem(33, 8, 40, false, []int{0, 2, 5}, []float64{1, -1, 2}, 0.1)
	m := d.Cols()
	ompModel, err := (&OMP{}).Fit(d, f, m)
	if err != nil {
		t.Fatal(err)
	}
	lsModel, err := LS{}.Fit(d, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	od, ld := ompModel.Dense(), lsModel.Dense()
	for i := range od {
		if math.Abs(od[i]-ld[i]) > 1e-7*(1+math.Abs(ld[i])) {
			t.Errorf("α[%d]: OMP %g vs LS %g", i, od[i], ld[i])
		}
	}
}

func TestOMPResidualMonotone(t *testing.T) {
	_, d, f, _ := synthProblem(34, 30, 80, false, []int{2, 9, 20}, []float64{1, 2, -1}, 0.3)
	path, err := (&OMP{}).FitPath(d, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < path.Len(); i++ {
		if path.Residual[i] > path.Residual[i-1]+1e-12 {
			t.Errorf("residual increased at step %d: %g → %g", i, path.Residual[i-1], path.Residual[i])
		}
	}
}

func TestOMPNeverReselects(t *testing.T) {
	_, d, f, _ := synthProblem(35, 20, 50, false, []int{1, 5}, []float64{1, 1}, 0.5)
	path, err := (&OMP{}).FitPath(d, f, 15)
	if err != nil {
		t.Fatal(err)
	}
	final := path.Models[path.Len()-1]
	seen := make(map[int]bool)
	for _, s := range final.Support {
		if seen[s] {
			t.Fatalf("basis %d selected twice", s)
		}
		seen[s] = true
	}
}

func TestOMPLambdaCappedBySamples(t *testing.T) {
	// K=10 samples: requesting λ=50 must cap at 10 active bases.
	_, d, f, _ := synthProblem(36, 40, 10, false, []int{0}, []float64{1}, 0.1)
	path, err := (&OMP{}).FitPath(d, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() > 10 {
		t.Errorf("path selected %d bases with only 10 samples", path.Len())
	}
}

func TestOMPEarlyStopTol(t *testing.T) {
	_, d, f, _ := synthProblem(37, 60, 100, false, []int{4, 8}, []float64{3, -2}, 0)
	path, err := (&OMP{Tol: 1e-10}).FitPath(d, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() > 3 {
		t.Errorf("noiseless 2-sparse problem used %d iterations despite Tol", path.Len())
	}
}

func TestOMPInputValidation(t *testing.T) {
	_, d, f, _ := synthProblem(38, 5, 10, false, []int{0}, []float64{1}, 0)
	if _, err := (&OMP{}).FitPath(d, f[:5], 2); err == nil {
		t.Error("mismatched response length must error")
	}
	if _, err := (&OMP{}).FitPath(d, f, 0); err == nil {
		t.Error("λ=0 must error")
	}
}

func TestOMPSkipsDependentColumns(t *testing.T) {
	// Duplicate column: after selecting one copy the other is linearly
	// dependent and must be skipped, not crash the factorization.
	g := linalg.NewMatrixFrom([][]float64{
		{1, 1, 0.3},
		{2, 2, -0.4},
		{3, 3, 0.9},
		{1, 1, 0.1},
	})
	d := basis.DenseDesignFromMatrix(g)
	f := []float64{1.3, 1.6, 3.9, 1.1}
	path, err := (&OMP{}).FitPath(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	final := path.Models[path.Len()-1]
	if final.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (duplicate column excluded)", final.NNZ())
	}
	has0 := false
	has1 := false
	for _, s := range final.Support {
		if s == 0 {
			has0 = true
		}
		if s == 1 {
			has1 = true
		}
	}
	if has0 && has1 {
		t.Error("both duplicate columns were selected")
	}
}

func TestOMPOnLazyDesignMatchesDense(t *testing.T) {
	b, dd, f, _ := synthProblem(39, 25, 60, true, []int{0, 7, 30}, []float64{1, -2, 1.5}, 0.05)
	// Rebuild the same points through a lazy design by regenerating them:
	// use the dense design's columns to reconstruct — instead, refit on a
	// lazy view constructed from the same sample points via Subset identity.
	rows := make([]int, dd.Rows())
	for i := range rows {
		rows[i] = i
	}
	lazyLike := Subset(dd, rows) // exercises the non-dense code path
	mDense, err := (&OMP{}).Fit(dd, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	mLazy, err := (&OMP{}).Fit(lazyLike, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, bb := mDense.Dense(), mLazy.Dense()
	for i := range a {
		if math.Abs(a[i]-bb[i]) > 1e-10 {
			t.Fatalf("dense/subset mismatch at %d: %g vs %g", i, a[i], bb[i])
		}
	}
	_ = b
}

func TestOMPGeneralizationBeatsSTARAndNoise(t *testing.T) {
	// End-to-end accuracy comparison on held-out data, the Fig. 4 setup in
	// miniature: OMP must beat STAR and be close to oracle.
	support := []int{2, 11, 29, 47}
	coefs := []float64{2, -1, 1.5, 0.5}
	bTrain, dTrain, fTrain, _ := synthProblem(40, 60, 150, false, support, coefs, 0.05)
	_, dTest, fTest, _ := synthProblem(41, 60, 2000, false, support, coefs, 0)

	ompModel, err := (&OMP{}).Fit(dTrain, fTrain, 4)
	if err != nil {
		t.Fatal(err)
	}
	starModel, err := fitFinal(&STAR{}, dTrain, fTrain, 4)
	if err != nil {
		t.Fatal(err)
	}
	ompErr := stats.RelativeRMSError(ompModel.Predict(dTest), fTest)
	starErr := stats.RelativeRMSError(starModel.Predict(dTest), fTest)
	if ompErr > 0.05 {
		t.Errorf("OMP test error %g too large", ompErr)
	}
	if starErr < ompErr {
		t.Errorf("expected OMP (%g) to beat STAR (%g) on correlated sampled columns", ompErr, starErr)
	}
	_ = bTrain
}

// Property (testing/quick): after every OMP step, the residual is orthogonal
// to all selected columns — the defining invariant of the least-squares
// re-fit in Algorithm 1 Step 6.
func TestOMPResidualOrthogonalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		k := n + 10 + r.Intn(40)
		nnz := 1 + r.Intn(4)
		support := r.Perm(n + 1)[:nnz]
		coefs := make([]float64, nnz)
		for i := range coefs {
			coefs[i] = r.NormFloat64() + 0.5
		}
		_, d, fv, _ := synthProblem(seed, n, k, false, support, coefs, 0.2)
		path, err := (&OMP{}).FitPath(d, fv, nnz+3)
		if err != nil {
			return false
		}
		for _, model := range path.Models {
			res := linalg.Sub(nil, fv, model.Predict(d))
			for _, idx := range model.Support {
				col := d.Column(nil, idx)
				if math.Abs(linalg.Dot(res, col)) > 1e-6*(1+linalg.Norm2(fv)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every recorded OMP model's support size equals its path index+1
// (strictly nested path).
func TestOMPPathNestedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(20)
		_, d, fv, _ := synthProblem(seed, n, 3*n, false, []int{1, 3}, []float64{1, -2}, 0.3)
		path, err := (&OMP{}).FitPath(d, fv, 6)
		if err != nil {
			return false
		}
		prev := map[int]bool{}
		for i, model := range path.Models {
			if model.NNZ() != i+1 {
				return false
			}
			for s := range prev {
				if model.Coefficient(s) == 0 && !contains(model.Support, s) {
					return false // earlier selection disappeared
				}
			}
			for _, s := range model.Support {
				prev[s] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
