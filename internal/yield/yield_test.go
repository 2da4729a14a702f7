package yield

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// gaussianModel builds f = mean + c1·y0 + c2·y1 over a linear basis: a
// Gaussian response with known mean and sigma.
func gaussianModel(mean, c1, c2 float64) (*basis.Basis, *core.Model) {
	b := basis.Linear(5)
	m := &core.Model{M: b.Size(), Support: []int{0, 1, 2}, Coef: []float64{mean, c1, c2}}
	return b, m
}

func TestModelMomentsClosedForm(t *testing.T) {
	b, m := gaussianModel(3.0, 0.6, -0.8)
	if got := ModelMean(m, b); got != 3.0 {
		t.Errorf("mean = %g, want 3", got)
	}
	// Var = 0.6² + 0.8² = 1.0.
	if got := ModelVariance(m, b); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("variance = %g, want 1", got)
	}
	if got := ModelStd(m, b); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("std = %g, want 1", got)
	}
}

func TestModelMomentsQuadraticTerms(t *testing.T) {
	// Quadratic Hermite terms are zero-mean unit-variance too, so the same
	// formulas hold for nonlinear models.
	b := basis.Quadratic(3)
	var quadIdx int
	for i, term := range b.Terms {
		if term.Degree() == 2 {
			quadIdx = i
			break
		}
	}
	m := &core.Model{M: b.Size(), Support: []int{0, quadIdx}, Coef: []float64{5, 2}}
	if got := ModelMean(m, b); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := ModelVariance(m, b); math.Abs(got-4) > 1e-12 {
		t.Errorf("variance = %g, want 4", got)
	}
	// Cross-check against Monte Carlo.
	a, err := NewAnalyzer(b, map[string]*core.Model{"f": m})
	if err != nil {
		t.Fatal(err)
	}
	samples := a.Sample(rng.New(1), 200000)["f"]
	if mc := stats.Mean(samples); math.Abs(mc-5) > 0.02 {
		t.Errorf("MC mean %g, want 5", mc)
	}
	if mc := stats.Variance(samples); math.Abs(mc-4) > 0.08 {
		t.Errorf("MC variance %g, want 4", mc)
	}
}

func TestModelMeanNoConstant(t *testing.T) {
	b := basis.Linear(3)
	m := &core.Model{M: b.Size(), Support: []int{1}, Coef: []float64{2}}
	if got := ModelMean(m, b); got != 0 {
		t.Errorf("mean = %g, want 0 without constant term", got)
	}
}

func TestModelMomentsBasisMismatchPanics(t *testing.T) {
	b := basis.Linear(3)
	m := &core.Model{M: 99}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ModelMean(m, b)
}

func TestYieldMatchesGaussianCDF(t *testing.T) {
	// f ~ N(0, 1): spec f ≤ 1.2816 (the 90% quantile) must yield ≈ 0.9.
	b, m := gaussianModel(0, 1, 0)
	a, err := NewAnalyzer(b, map[string]*core.Model{"f": m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Yield(rng.New(2), 200000, map[string]Spec{
		"f": {Low: math.Inf(-1), High: 1.2816},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Yield-0.9) > 0.005 {
		t.Errorf("yield = %g, want 0.90", res.Yield)
	}
	if math.Abs(res.Marginal["f"]-res.Yield) > 1e-12 {
		t.Error("single-spec marginal must equal joint yield")
	}
}

func TestJointYieldBelowMarginals(t *testing.T) {
	// Two independent metrics: joint yield = product of marginals.
	b := basis.Linear(4)
	m1 := &core.Model{M: b.Size(), Support: []int{1}, Coef: []float64{1}} // depends on y0
	m2 := &core.Model{M: b.Size(), Support: []int{2}, Coef: []float64{1}} // depends on y1
	a, err := NewAnalyzer(b, map[string]*core.Model{"p": m1, "q": m2})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"p": {Low: math.Inf(-1), High: 0}, // 50%
		"q": {Low: math.Inf(-1), High: 0}, // 50%
	}
	res, err := a.Yield(rng.New(3), 200000, specs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Yield-0.25) > 0.01 {
		t.Errorf("joint yield %g, want 0.25", res.Yield)
	}
	for name, p := range res.Marginal {
		if math.Abs(p-0.5) > 0.01 {
			t.Errorf("marginal %s = %g, want 0.5", name, p)
		}
	}
}

func TestQuantiles(t *testing.T) {
	b, m := gaussianModel(0, 1, 0)
	a, err := NewAnalyzer(b, map[string]*core.Model{"f": m})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := a.Quantiles(rng.New(4), 200000, "f", []float64{0.5, 0.9772})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qs[0]) > 0.02 {
		t.Errorf("median %g, want 0", qs[0])
	}
	if math.Abs(qs[1]-2) > 0.05 {
		t.Errorf("97.72%% quantile %g, want 2 (2σ)", qs[1])
	}
}

func TestAnalyzerValidation(t *testing.T) {
	b := basis.Linear(2)
	if _, err := NewAnalyzer(b, nil); err == nil {
		t.Error("empty model set must error")
	}
	if _, err := NewAnalyzer(b, map[string]*core.Model{"f": {M: 7}}); err == nil {
		t.Error("dictionary mismatch must error")
	}
	if _, err := NewAnalyzer(b, map[string]*core.Model{"f": {M: b.Size(), Support: []int{1, 1}, Coef: []float64{1, 2}}}); err == nil {
		t.Error("duplicate support index must error")
	}
	a, err := NewAnalyzer(b, map[string]*core.Model{"f": {M: b.Size()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Yield(rng.New(1), 0, map[string]Spec{"f": {}}); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := a.Yield(rng.New(1), 10, map[string]Spec{"g": {}}); err == nil {
		t.Error("unknown metric spec must error")
	}
	if _, err := a.Yield(rng.New(1), 10, nil); err == nil {
		t.Error("no specs must error")
	}
	if _, err := a.Quantiles(rng.New(1), 10, "g", []float64{0.5}); err == nil {
		t.Error("unknown metric must error")
	}
}

func TestSpecPass(t *testing.T) {
	s := Spec{Low: -1, High: 2}
	for v, want := range map[float64]bool{-2: false, -1: true, 0: true, 2: true, 3: false} {
		if s.Pass(v) != want {
			t.Errorf("Pass(%g) = %v", v, !want)
		}
	}
}

// TestEndToEndYieldFromFit ties the whole flow together: fit a sparse model
// with OMP from samples of a known Gaussian response, then verify that the
// predicted yield matches the analytic value.
func TestEndToEndYieldFromFit(t *testing.T) {
	b := basis.Linear(30)
	truth := &core.Model{M: b.Size(), Support: []int{0, 3, 10}, Coef: []float64{1.0, 0.8, -0.6}}
	src := rng.New(5)
	const k = 200
	pts := make([][]float64, k)
	f := make([]float64, k)
	for i := range pts {
		pts[i] = src.NormVec(nil, 30)
		f[i] = truth.PredictPoint(b, pts[i])
	}
	d := basis.NewDenseDesign(b, pts)
	model, err := (&core.OMP{}).Fit(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: f ~ N(1, 1). Spec f ≥ 0 → Φ(1) ≈ 0.8413.
	a, err := NewAnalyzer(b, map[string]*core.Model{"f": model})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Yield(rng.New(6), 100000, map[string]Spec{"f": {Low: 0, High: math.Inf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Yield-0.8413) > 0.01 {
		t.Errorf("yield %g, want Φ(1) ≈ 0.8413", res.Yield)
	}
	if math.Abs(ModelMean(model, b)-1) > 1e-6 || math.Abs(ModelStd(model, b)-1) > 1e-6 {
		t.Errorf("fitted moments (%g, %g), want (1, 1)", ModelMean(model, b), ModelStd(model, b))
	}
}

func TestWorstCaseCornerLinearModel(t *testing.T) {
	// f = 1 + 0.6·y0 − 0.8·y1: the 3σ worst-case maximum is along
	// (0.6, −0.8)/1 scaled by 3, value 1 + 3·1 = 4.
	b, m := gaussianModel(1, 0.6, -0.8)
	corner, val := WorstCaseCorner(m, b, 3, true, 5)
	if math.Abs(val-4) > 1e-10 {
		t.Errorf("max corner value %g, want 4", val)
	}
	if math.Abs(corner[0]-1.8) > 1e-10 || math.Abs(corner[1]+2.4) > 1e-10 {
		t.Errorf("corner %v, want [1.8 -2.4 0 0 0]", corner)
	}
	_, lo := WorstCaseCorner(m, b, 3, false, 5)
	if math.Abs(lo-(-2)) > 1e-10 {
		t.Errorf("min corner value %g, want -2", lo)
	}
}

func TestWorstCaseCornerQuadratic(t *testing.T) {
	// f = H̃₂(y0)·c: maximum on the 2σ sphere is at y0 = ±2 with value
	// c·(4−1)/√2; the iteration must land on the sphere.
	b := basis.Quadratic(3)
	var quadIdx int
	for i, term := range b.Terms {
		if term.Degree() == 2 && len(term) == 1 && term[0].Var == 0 {
			quadIdx = i
		}
	}
	m := &core.Model{M: b.Size(), Support: []int{quadIdx}, Coef: []float64{2}}
	corner, val := WorstCaseCorner(m, b, 2, true, 50)
	want := 2 * (4 - 1) / math.Sqrt2
	if math.Abs(val-want) > 1e-6 {
		t.Errorf("max value %g, want %g", val, want)
	}
	r := 0.0
	for _, v := range corner {
		r += v * v
	}
	if math.Abs(math.Sqrt(r)-2) > 1e-9 {
		t.Errorf("corner radius %g, want 2", math.Sqrt(r))
	}
}

func TestWorstCaseCornerPanicsOnBadRadius(t *testing.T) {
	b, m := gaussianModel(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WorstCaseCorner(m, b, 0, true, 3)
}

func TestSobolTotalAdditiveModel(t *testing.T) {
	// f = 3 + 2·y0 − 1·y2: variance 5, S0 = 4/5, S2 = 1/5, others 0.
	b := basis.Linear(4)
	m := &core.Model{M: b.Size(), Support: []int{0, 1, 3}, Coef: []float64{3, 2, -1}}
	s := SobolTotal(m, b)
	want := []float64{0.8, 0, 0.2, 0}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("S%d = %g, want %g", i, s[i], want[i])
		}
	}
}

func TestSobolTotalInteraction(t *testing.T) {
	// f = y0·y1: the cross term charges both variables fully.
	b := basis.Quadratic(3)
	var crossIdx int
	for i, term := range b.Terms {
		if len(term) == 2 && term[0].Var == 0 && term[1].Var == 1 {
			crossIdx = i
		}
	}
	m := &core.Model{M: b.Size(), Support: []int{crossIdx}, Coef: []float64{2}}
	s := SobolTotal(m, b)
	if s[0] != 1 || s[1] != 1 || s[2] != 0 {
		t.Errorf("Sobol = %v, want [1 1 0]", s)
	}
}

func TestSobolTotalZeroVariance(t *testing.T) {
	b := basis.Linear(2)
	m := &core.Model{M: b.Size(), Support: []int{0}, Coef: []float64{5}}
	s := SobolTotal(m, b)
	if s[0] != 0 || s[1] != 0 {
		t.Errorf("constant model Sobol = %v, want zeros", s)
	}
}
