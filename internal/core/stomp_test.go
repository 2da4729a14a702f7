package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestStOMPRecoversSparseSupport(t *testing.T) {
	support := []int{6, 23, 48, 71}
	coefs := []float64{3, -2, 1.5, 1}
	_, d, f, alpha := synthProblem(90, 80, 120, false, support, coefs, 0)
	model, err := fitFinal(&StOMP{}, d, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, s := range model.Support {
		got[s] = true
	}
	for _, s := range support {
		if !got[s] {
			t.Errorf("true basis %d missing from %v", s, model.Support)
		}
	}
	dense := model.Dense()
	for _, s := range support {
		if math.Abs(dense[s]-alpha[s]) > 0.05 {
			t.Errorf("α[%d] = %g, want %g", s, dense[s], alpha[s])
		}
	}
}

func TestStOMPFewerStagesThanOMPIterations(t *testing.T) {
	// The point of StOMP: a 10-sparse recovery takes OMP 10 Gᵀ·res passes
	// but StOMP only a few stages.
	support := []int{2, 9, 17, 25, 33, 41, 49, 57, 65, 73}
	coefs := make([]float64, 10)
	for i := range coefs {
		coefs[i] = 1 + float64(i%3)
	}
	_, d, f, _ := synthProblem(91, 80, 200, false, support, coefs, 0.01)
	path, err := (&StOMP{}).FitPath(d, f, 20)
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() > 5 {
		t.Errorf("StOMP used %d stages for a 10-sparse signal, want ≤ 5", path.Len())
	}
	final := path.Models[path.Len()-1]
	got := map[int]bool{}
	for _, s := range final.Support {
		got[s] = true
	}
	for _, s := range support {
		if !got[s] {
			t.Errorf("true basis %d missing", s)
		}
	}
}

func TestStOMPResidualDecreases(t *testing.T) {
	_, d, f, _ := synthProblem(92, 40, 90, false, []int{3, 12, 22}, []float64{2, -1, 1}, 0.1)
	path, err := (&StOMP{}).FitPath(d, f, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < path.Len(); i++ {
		if path.Residual[i] > path.Residual[i-1]+1e-12 {
			t.Errorf("residual rose at stage %d", i)
		}
	}
}

func TestStOMPRespectsLambdaCap(t *testing.T) {
	_, d, f, _ := synthProblem(93, 50, 80, false, []int{1, 5, 9, 13}, []float64{1, 1, 1, 1}, 0.3)
	model, err := fitFinal(&StOMP{Threshold: 0.5}, d, f, 6) // low threshold admits many
	if err != nil {
		t.Fatal(err)
	}
	if model.NNZ() > 6 {
		t.Errorf("NNZ = %d exceeds λ=6", model.NNZ())
	}
}

func TestStOMPGeneralizationComparableToOMP(t *testing.T) {
	support := []int{4, 18, 39}
	coefs := []float64{2, -1.5, 1}
	_, dTrain, fTrain, _ := synthProblem(94, 60, 150, false, support, coefs, 0.05)
	_, dTest, fTest, _ := synthProblem(95, 60, 1500, false, support, coefs, 0)
	st, err := fitFinal(&StOMP{}, dTrain, fTrain, 10)
	if err != nil {
		t.Fatal(err)
	}
	om, err := (&OMP{}).Fit(dTrain, fTrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	eSt := stats.RelativeRMSError(st.Predict(dTest), fTest)
	eOm := stats.RelativeRMSError(om.Predict(dTest), fTest)
	if eSt > 3*eOm+0.02 {
		t.Errorf("StOMP error %g much worse than OMP %g", eSt, eOm)
	}
}

func TestStOMPInCrossValidation(t *testing.T) {
	_, d, f, _ := synthProblem(96, 30, 100, false, []int{2, 11}, []float64{2, -1}, 0.05)
	res, err := CrossValidate(&StOMP{}, d, f, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, s := range res.Model.Support {
		got[s] = true
	}
	if !got[2] || !got[11] {
		t.Errorf("CV-StOMP support %v misses the truth", res.Model.Support)
	}
}

func TestStOMPValidation(t *testing.T) {
	_, d, f, _ := synthProblem(97, 10, 20, false, []int{0}, []float64{1}, 0)
	if _, err := (&StOMP{}).FitPath(d, f, 0); err == nil {
		t.Error("maxLambda=0 must error")
	}
}
