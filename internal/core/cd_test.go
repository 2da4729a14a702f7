package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// fitLambda solves one lasso problem at the fixed penalty μ, the inner
// problem of every step of CD's path.
func fitLambda(c *CD, d basis.Design, f []float64, mu float64) (*Model, error) {
	if err := checkProblem(d, f, 1); err != nil {
		return nil, err
	}
	if mu < 0 {
		return nil, fmt.Errorf("core: CD penalty μ=%g must be non-negative", mu)
	}
	st := newCDState(d, f, NewEngine(0))
	st.l2 = c.L2 / float64(d.Rows())
	if err := st.solve(nil, mu, c.sweeps(), c.tol()); err != nil {
		return nil, err
	}
	return st.model(d, f, c.Refit), nil
}

func TestCDRecoversSparseSupport(t *testing.T) {
	support := []int{4, 19, 55}
	coefs := []float64{3, -2, 1.5}
	_, d, f, _ := synthProblem(80, 70, 120, false, support, coefs, 0.01)
	model, err := fitFinal(&CD{Refit: true}, d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := model.SortedSupport()
	if len(sorted) != 3 {
		t.Fatalf("support %v, want 3 entries", sorted)
	}
	for i, s := range support {
		if sorted[i] != s {
			t.Fatalf("support %v, want %v", sorted, support)
		}
	}
	for i, idx := range model.Support {
		var want float64
		for j, s := range support {
			if s == idx {
				want = coefs[j]
			}
		}
		if math.Abs(model.Coef[i]-want) > 0.05 {
			t.Errorf("coef %d = %g, want ≈ %g", idx, model.Coef[i], want)
		}
	}
}

func TestCDMatchesLassoLAR(t *testing.T) {
	// The coordinate-descent lasso and the lasso-modified LAR solve the same
	// convex problem: with matched penalty/path position their supports must
	// agree, and refit coefficients must match closely.
	support := []int{2, 11, 27}
	coefs := []float64{2, -1.2, 0.8}
	_, d, f, _ := synthProblem(81, 40, 90, false, support, coefs, 0.05)
	cd, err := fitFinal(&CD{Refit: true}, d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	lar, err := fitFinal(&LAR{Lasso: true, Refit: true}, d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	cs, ls := cd.SortedSupport(), lar.SortedSupport()
	if len(cs) != len(ls) {
		t.Fatalf("support sizes differ: CD %v vs LAR %v", cs, ls)
	}
	for i := range cs {
		if cs[i] != ls[i] {
			t.Fatalf("supports differ: CD %v vs LAR %v", cs, ls)
		}
	}
	for _, idx := range cs {
		a, b := cd.Coefficient(idx), lar.Coefficient(idx)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Errorf("coef %d: CD %g vs LAR %g", idx, a, b)
		}
	}
}

func TestCDFitLambdaKKT(t *testing.T) {
	// KKT conditions of the lasso: for active j, (1/K)G_jᵀres = μ·sign(α_j);
	// for inactive j, |(1/K)G_jᵀres| ≤ μ.
	_, d, f, _ := synthProblem(82, 30, 60, false, []int{3, 14}, []float64{2, -1}, 0.1)
	const mu = 0.05
	model, err := fitLambda(&CD{}, d, f, mu)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, d.Rows())
	copy(res, f)
	pred := model.Predict(d)
	for i := range res {
		res[i] -= pred[i]
	}
	corr := d.MulTransVec(nil, res)
	k := float64(d.Rows())
	active := map[int]float64{}
	for i, idx := range model.Support {
		active[idx] = model.Coef[i]
	}
	for j := range corr {
		c := corr[j] / k
		if a, ok := active[j]; ok {
			want := mu
			if a < 0 {
				want = -mu
			}
			if math.Abs(c-want) > 1e-6 {
				t.Errorf("active KKT violated at %d: corr %g, want %g", j, c, want)
			}
		} else if math.Abs(c) > mu+1e-6 {
			t.Errorf("inactive KKT violated at %d: |corr| %g > μ", j, math.Abs(c))
		}
	}
}

func TestCDShrinkageTowardZero(t *testing.T) {
	_, d, f, _ := synthProblem(83, 25, 60, false, []int{5, 12}, []float64{2, -1.5}, 0.05)
	plain, err := fitFinal(&CD{}, d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	refit, err := fitFinal(&CD{Refit: true}, d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Coef {
		if math.Abs(plain.Coef[i]) > math.Abs(refit.Coef[i])+1e-9 {
			t.Errorf("lasso coef %d not shrunken: %g vs refit %g", i, plain.Coef[i], refit.Coef[i])
		}
	}
}

func TestCDPathInCrossValidation(t *testing.T) {
	support := []int{1, 8}
	coefs := []float64{2, -1}
	_, d, f, _ := synthProblem(84, 20, 80, false, support, coefs, 0.05)
	res, err := CrossValidate(&CD{Refit: true}, d, f, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, s := range res.Model.Support {
		got[s] = true
	}
	if !got[1] || !got[8] {
		t.Errorf("CV-CD support %v misses the truth", res.Model.Support)
	}
}

func TestCDValidation(t *testing.T) {
	_, d, f, _ := synthProblem(85, 10, 20, false, []int{0}, []float64{1}, 0)
	if _, err := fitLambda(&CD{}, d, f, -1); err == nil {
		t.Error("negative μ must error")
	}
	if _, err := (&CD{}).FitPath(d, f, 0); err == nil {
		t.Error("maxLambda=0 must error")
	}
	// Zero response: no basis correlates.
	zero := make([]float64, d.Rows())
	if _, err := (&CD{}).FitPath(d, zero, 3); err == nil {
		t.Error("zero response must error")
	}
}

func TestSelectBICFindsTrueSparsity(t *testing.T) {
	support := []int{3, 17, 31}
	coefs := []float64{2, -1.5, 1}
	_, d, f, _ := synthProblem(86, 40, 150, false, support, coefs, 0.05)
	res, err := SelectIC(&OMP{}, d, f, 15, BIC)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLambda < 3 || res.BestLambda > 5 {
		t.Errorf("BIC chose λ=%d, want ≈3 (scores %v)", res.BestLambda, res.Scores)
	}
	got := map[int]bool{}
	for _, s := range res.Model.Support {
		got[s] = true
	}
	for _, s := range support {
		if !got[s] {
			t.Errorf("true basis %d missing from BIC model", s)
		}
	}
}

func TestSelectAICAtLeastTrueSparsity(t *testing.T) {
	// AIC penalizes less than BIC, so it selects at least as many bases.
	support := []int{2, 9}
	coefs := []float64{3, -2}
	_, d, f, _ := synthProblem(87, 30, 120, false, support, coefs, 0.1)
	bic, err := SelectIC(&OMP{}, d, f, 15, BIC)
	if err != nil {
		t.Fatal(err)
	}
	aic, err := SelectIC(&OMP{}, d, f, 15, AIC)
	if err != nil {
		t.Fatal(err)
	}
	if aic.BestLambda < bic.BestLambda {
		t.Errorf("AIC λ=%d < BIC λ=%d", aic.BestLambda, bic.BestLambda)
	}
}

func TestSelectICAgreesWithCV(t *testing.T) {
	// On a well-posed problem, BIC and CV should land on similar sparsity
	// and the same leading support.
	support := []int{4, 12, 21}
	coefs := []float64{2, 1.2, -0.9}
	_, d, f, _ := synthProblem(88, 30, 140, false, support, coefs, 0.05)
	ic, err := SelectIC(&OMP{}, d, f, 12, BIC)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := CrossValidate(&OMP{}, d, f, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ic.BestLambda - cv.BestLambda; diff < -2 || diff > 2 {
		t.Errorf("BIC λ=%d far from CV λ=%d", ic.BestLambda, cv.BestLambda)
	}
}

func TestCriterionString(t *testing.T) {
	if BIC.String() != "BIC" || AIC.String() != "AIC" {
		t.Error("criterion names wrong")
	}
	if Criterion(9).String() != "Criterion(9)" {
		t.Error("unknown criterion formatting wrong")
	}
}

func TestCDElasticNetGroupsCorrelatedColumns(t *testing.T) {
	// Two nearly identical columns carry the signal. The plain lasso picks
	// one arbitrarily; the elastic net splits the weight across both.
	k := 60
	r := make([][]float64, k)
	base := make([]float64, k)
	f := make([]float64, k)
	rng := newDeterministicRand(130)
	for i := 0; i < k; i++ {
		base[i] = rng()
		r[i] = []float64{base[i] + 0.01*rng(), base[i] + 0.01*rng(), rng()}
		f[i] = 2 * base[i]
	}
	d := basis.DenseDesignFromMatrix(linalg.NewMatrixFrom(r))
	const mu = 0.02
	lasso, err := fitLambda(&CD{}, d, f, mu)
	if err != nil {
		t.Fatal(err)
	}
	enet, err := fitLambda(&CD{L2: 50}, d, f, mu)
	if err != nil {
		t.Fatal(err)
	}
	// Elastic net must put comparable weight on both twins.
	c0, c1 := enet.Coefficient(0), enet.Coefficient(1)
	if c0 == 0 || c1 == 0 {
		t.Fatalf("elastic net dropped a twin: %g, %g", c0, c1)
	}
	ratio := c0 / c1
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("elastic net weights unbalanced: %g vs %g", c0, c1)
	}
	// The plain lasso concentrates far more asymmetrically.
	l0, l1 := lasso.Coefficient(0), lasso.Coefficient(1)
	lr := math.Abs(l0-l1) / (math.Abs(l0) + math.Abs(l1) + 1e-12)
	er := math.Abs(c0-c1) / (math.Abs(c0) + math.Abs(c1))
	if er > lr {
		t.Errorf("elastic net (%g) less balanced than lasso (%g)", er, lr)
	}
}

// newDeterministicRand returns a tiny deterministic float stream for test
// fixtures without importing math/rand here.
func newDeterministicRand(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(int64(state>>11))/float64(1<<52) - 1
	}
}
