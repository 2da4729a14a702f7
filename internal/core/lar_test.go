package core

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/linalg"
	"repro/internal/stats"
)

func TestLARRecoversSparseSupport(t *testing.T) {
	support := []int{5, 22, 61}
	coefs := []float64{3, -2, 1.2}
	_, d, f, _ := synthProblem(50, 80, 100, false, support, coefs, 0)
	path, err := (&LAR{}).FitPath(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	model := path.At(3)
	sorted := model.SortedSupport()
	want := []int{5, 22, 61}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("support = %v, want %v", sorted, want)
		}
	}
}

func TestLAREquiangularProperty(t *testing.T) {
	// Along the LARS path the active basis vectors keep equal absolute
	// correlation with the residual. Check right after each recorded step.
	_, d, f, _ := synthProblem(51, 30, 60, false, []int{1, 9, 17, 25}, []float64{2, 1.5, -1, 0.5}, 0.01)
	path, err := (&LAR{}).FitPath(d, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	norms := make([]float64, d.Cols())
	col := make([]float64, d.Rows())
	for j := range norms {
		d.Column(col, j)
		norms[j] = linalg.Norm2(col)
	}
	for step, model := range path.Models {
		res := linalg.Sub(nil, f, model.Predict(d))
		corr := d.MulTransVec(nil, res)
		var active []float64
		for _, idx := range model.Support {
			active = append(active, math.Abs(corr[idx]/norms[idx]))
		}
		for i := 1; i < len(active); i++ {
			if math.Abs(active[i]-active[0]) > 1e-8*(1+active[0]) {
				t.Errorf("step %d: active correlations differ: %v", step, active)
			}
		}
		// Inactive correlations never exceed the active level.
		maxInactive := 0.0
		activeSet := make(map[int]bool)
		for _, idx := range model.Support {
			activeSet[idx] = true
		}
		for j := range corr {
			if !activeSet[j] {
				if a := math.Abs(corr[j] / norms[j]); a > maxInactive {
					maxInactive = a
				}
			}
		}
		if len(active) > 0 && maxInactive > active[0]+1e-8*(1+active[0]) {
			t.Errorf("step %d: inactive correlation %g exceeds active %g", step, maxInactive, active[0])
		}
	}
}

func TestLARShrinkage(t *testing.T) {
	// LAR path coefficients are shrunken toward zero relative to the LS
	// refit on the same support — the L1 bias.
	_, d, f, _ := synthProblem(52, 40, 70, false, []int{3, 12}, []float64{2, -3}, 0.05)
	plain, err := fitFinal(&LAR{}, d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	refit, err := fitFinal(&LAR{Refit: true}, d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Coef {
		if math.Abs(plain.Coef[i]) > math.Abs(refit.Coef[i])+1e-9 {
			t.Errorf("coef %d not shrunken: LAR %g vs refit %g", i, plain.Coef[i], refit.Coef[i])
		}
	}
}

func TestLARRefitMatchesOMPOnSameSupport(t *testing.T) {
	_, d, f, _ := synthProblem(53, 50, 90, false, []int{7, 19, 40}, []float64{1, 2, -1}, 0)
	lar, err := fitFinal(&LAR{Refit: true}, d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	omp, err := (&OMP{}).Fit(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	ld, od := lar.Dense(), omp.Dense()
	for i := range ld {
		if math.Abs(ld[i]-od[i]) > 1e-7 {
			t.Errorf("α[%d]: LAR-refit %g vs OMP %g", i, ld[i], od[i])
		}
	}
}

func TestLARFullPathApproachesLS(t *testing.T) {
	// Running LARS until all columns are active ends at the LS solution.
	_, d, f, _ := synthProblem(54, 6, 50, false, []int{1, 4}, []float64{1, -2}, 0.2)
	m := d.Cols()
	path, err := (&LAR{}).FitPath(d, f, m)
	if err != nil {
		t.Fatal(err)
	}
	last := path.Models[path.Len()-1]
	ls, err := LS{}.Fit(d, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ld, sd := last.Dense(), ls.Dense()
	for i := range ld {
		if math.Abs(ld[i]-sd[i]) > 1e-6*(1+math.Abs(sd[i])) {
			t.Errorf("α[%d]: LAR-full %g vs LS %g", i, ld[i], sd[i])
		}
	}
}

func TestLassoPathSignConsistency(t *testing.T) {
	// With the lasso modification, every active coefficient has the same
	// sign as its correlation with the residual at entry; no recorded model
	// may contain a coefficient that crossed zero.
	_, d, f, _ := synthProblem(55, 30, 45, false, []int{2, 8, 15, 21}, []float64{2, -1.5, 1, -0.5}, 0.3)
	path, err := (&LAR{Lasso: true}).FitPath(d, f, 8)
	if err != nil {
		t.Fatal(err)
	}
	for step, model := range path.Models {
		for i, c := range model.Coef {
			if c == 0 && len(model.Support) > 0 {
				t.Errorf("step %d: zero coefficient for active basis %d", step, model.Support[i])
			}
		}
	}
}

func TestLARSkipsDuplicateColumns(t *testing.T) {
	g := linalg.NewMatrixFrom([][]float64{
		{1, 1, 0.2},
		{2, 2, 0.9},
		{3, 3, -0.5},
		{4, 4, 0.1},
	})
	d := basis.DenseDesignFromMatrix(g)
	f := []float64{1.1, 2.3, 2.8, 4.2}
	path, err := (&LAR{}).FitPath(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	final := path.Models[path.Len()-1]
	if final.NNZ() > 2 {
		t.Errorf("NNZ = %d, want ≤ 2 with a duplicate column", final.NNZ())
	}
}

func TestLARZeroColumnExcluded(t *testing.T) {
	g := linalg.NewMatrixFrom([][]float64{
		{0, 1, 0.5},
		{0, 2, -0.3},
		{0, 1, 0.8},
	})
	d := basis.DenseDesignFromMatrix(g)
	f := []float64{1, 2, 1}
	path, err := (&LAR{}).FitPath(d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range path.Models {
		for _, s := range m.Support {
			if s == 0 {
				t.Fatal("zero column was selected")
			}
		}
	}
}

func TestLARGeneralization(t *testing.T) {
	support := []int{4, 13, 31}
	coefs := []float64{2, 1, -1.5}
	_, dTrain, fTrain, _ := synthProblem(56, 40, 120, false, support, coefs, 0.05)
	_, dTest, fTest, _ := synthProblem(57, 40, 1500, false, support, coefs, 0)
	model, err := fitFinal(&LAR{Refit: true}, dTrain, fTrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelativeRMSError(model.Predict(dTest), fTest); e > 0.05 {
		t.Errorf("LAR test error %g too large", e)
	}
}
