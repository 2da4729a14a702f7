// Package yield turns fitted response surface models into the quantities
// the paper's introduction motivates them with: performance distributions,
// quantiles and parametric yield. Once a sparse model is extracted from a
// few hundred transistor-level simulations, millions of virtual Monte Carlo
// samples cost only polynomial evaluations — this package is that payoff.
//
// For orthonormal Hermite models two moments come out in closed form:
// E[f] is the constant-term coefficient and Var[f] = Σ α_m² over the
// non-constant terms, directly from eq. (2)'s orthonormality.
package yield

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ModelMean returns the exact mean of a fitted orthonormal-Hermite model
// under ΔY ~ N(0, I): the coefficient of the constant basis function.
func ModelMean(m *core.Model, b *basis.Basis) float64 {
	if b.Size() != m.M {
		panic(fmt.Sprintf("yield: basis size %d does not match model dictionary %d", b.Size(), m.M))
	}
	for i, idx := range m.Support {
		if b.Terms[idx].Degree() == 0 {
			return m.Coef[i]
		}
	}
	return 0
}

// ModelVariance returns the exact variance of the model under ΔY ~ N(0, I):
// the sum of squared non-constant coefficients (orthonormality of eq. (2)).
func ModelVariance(m *core.Model, b *basis.Basis) float64 {
	if b.Size() != m.M {
		panic(fmt.Sprintf("yield: basis size %d does not match model dictionary %d", b.Size(), m.M))
	}
	v := 0.0
	for i, idx := range m.Support {
		if b.Terms[idx].Degree() == 0 {
			continue
		}
		v += m.Coef[i] * m.Coef[i]
	}
	return v
}

// ModelStd returns the exact standard deviation of the model.
func ModelStd(m *core.Model, b *basis.Basis) float64 {
	return math.Sqrt(ModelVariance(m, b))
}

// Spec is an acceptance window for one metric. Use ±Inf for one-sided specs.
type Spec struct {
	Low, High float64
}

// Pass reports whether v satisfies the spec.
func (s Spec) Pass(v float64) bool { return v >= s.Low && v <= s.High }

// Analyzer evaluates a set of per-metric models over a shared variation
// space for distribution and yield estimation. Each virtual sample draws one
// ΔY ~ N(0, I) point, whatever the number of models, and evaluates only the
// metrics a call needs through compiled predictors, which touch the
// support's variables and never the M-term dictionary. So an answer depends
// on the seed and n alone, not on which other metrics the analyzer holds.
type Analyzer struct {
	// B is the shared basis (all models must use it).
	B *basis.Basis
	// Models maps metric name to its fitted model.
	Models map[string]*core.Model
}

// NewAnalyzer validates and wraps the models. A model that does not compile
// against b (a mismatched dictionary, a duplicate or out-of-range support
// index) is an error.
func NewAnalyzer(b *basis.Basis, models map[string]*core.Model) (*Analyzer, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("yield: no models")
	}
	for name, m := range models {
		if _, err := m.Compile(b); err != nil {
			return nil, fmt.Errorf("yield: model %q: %w", name, err)
		}
	}
	return &Analyzer{B: b, Models: models}, nil
}

// draw streams n virtual samples. Sample k draws one ΔY point and passes the
// named metrics' values at it to visit, in names order. The models are
// compiled per call (a few microseconds for a sparse model), so later edits
// to B or Models are honoured and nothing is cached.
func (a *Analyzer) draw(src *rng.Source, n int, names []string, visit func(k int, vals []float64)) error {
	evs := make([]*core.PointEvaluator, len(names))
	for i, name := range names {
		cp, err := a.Models[name].Compile(a.B)
		if err != nil {
			return fmt.Errorf("yield: model %q: %w", name, err)
		}
		evs[i] = cp.NewEvaluator()
	}
	dy := make([]float64, a.B.Dim)
	vals := make([]float64, len(names))
	for k := 0; k < n; k++ {
		src.NormVec(dy, a.B.Dim)
		for i, ev := range evs {
			vals[i] = ev.Eval(dy)
		}
		visit(k, vals)
	}
	return nil
}

// sample returns n virtual samples of each named metric, in names order.
func (a *Analyzer) sample(src *rng.Source, n int, names []string) ([][]float64, error) {
	out := make([][]float64, len(names))
	for i := range out {
		out[i] = make([]float64, n)
	}
	err := a.draw(src, n, names, func(k int, vals []float64) {
		for i, v := range vals {
			out[i][k] = v
		}
	})
	return out, err
}

// Sample draws n virtual Monte Carlo samples of every metric. It panics on a
// model that does not compile against B, which NewAnalyzer rules out.
func (a *Analyzer) Sample(src *rng.Source, n int) map[string][]float64 {
	names := make([]string, 0, len(a.Models))
	for name := range a.Models {
		names = append(names, name)
	}
	cols, err := a.sample(src, n, names)
	if err != nil {
		panic(err.Error())
	}
	out := make(map[string][]float64, len(names))
	for i, name := range names {
		out[name] = cols[i]
	}
	return out
}

// Result is a yield estimate.
type Result struct {
	// Yield is the joint pass probability over all specs.
	Yield float64
	// Marginal is the per-metric pass probability.
	Marginal map[string]float64
	// N is the virtual sample count used.
	N int
}

// Yield estimates the parametric yield for the given specs by virtual Monte
// Carlo with n samples. Only the spec'd metrics are evaluated, and passes
// are counted as the samples stream, so memory does not grow with n. A spec
// for an unknown metric is an error.
func (a *Analyzer) Yield(src *rng.Source, n int, specs map[string]Spec) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("yield: sample count %d must be positive", n)
	}
	for name := range specs {
		if _, ok := a.Models[name]; !ok {
			return nil, fmt.Errorf("yield: spec for unknown metric %q", name)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("yield: no specs")
	}
	names := make([]string, 0, len(specs))
	list := make([]Spec, 0, len(specs))
	for name, spec := range specs {
		names = append(names, name)
		list = append(list, spec)
	}
	passAll := 0
	passOne := make([]int, len(names))
	err := a.draw(src, n, names, func(_ int, vals []float64) {
		all := true
		for i, v := range vals {
			if list[i].Pass(v) {
				passOne[i]++
			} else {
				all = false
			}
		}
		if all {
			passAll++
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Yield:    float64(passAll) / float64(n),
		Marginal: make(map[string]float64, len(specs)),
		N:        n,
	}
	for i, name := range names {
		res.Marginal[name] = float64(passOne[i]) / float64(n)
	}
	return res, nil
}

// Quantiles estimates the given quantiles of one metric from n virtual
// samples, evaluating that metric alone.
func (a *Analyzer) Quantiles(src *rng.Source, n int, metric string, ps []float64) ([]float64, error) {
	if _, ok := a.Models[metric]; !ok {
		return nil, fmt.Errorf("yield: unknown metric %q", metric)
	}
	cols, err := a.sample(src, n, []string{metric})
	if err != nil {
		return nil, err
	}
	return SortedQuantiles(cols[0], ps), nil
}

// PassFraction returns the fraction of samples that satisfy spec: the
// single-metric yield estimate over samples already drawn.
func PassFraction(samples []float64, spec Spec) float64 {
	pass := 0
	for _, v := range samples {
		if spec.Pass(v) {
			pass++
		}
	}
	return float64(pass) / float64(len(samples))
}

// SortedQuantiles sorts samples in place and returns their ps quantiles
// (stats.Quantile's interpolation). Callers that also need a pass count can
// take it from the same slice first.
func SortedQuantiles(samples, ps []float64) []float64 {
	sort.Float64s(samples)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = stats.SortedQuantile(samples, p)
	}
	return out
}

// WorstCaseCorner searches the sphere ‖ΔY‖ = radius (in sigma units) for the
// factor corner extremizing the model, by projected gradient ascent/descent.
// For a linear model the result is exact (the gradient direction); for
// nonlinear models a few iterations converge to a local extremum. It returns
// the corner and the model value there — the "worst-case corner" analysis
// classical RSM flows run after fitting.
func WorstCaseCorner(m *core.Model, b *basis.Basis, radius float64, maximize bool, iters int) ([]float64, float64) {
	if radius <= 0 {
		panic(fmt.Sprintf("yield: corner radius %g must be positive", radius))
	}
	if iters < 1 {
		iters = 1
	}
	n := b.Dim
	y := make([]float64, n)
	grad := make([]float64, n)
	// Initial direction: the gradient at the origin (or an arbitrary axis
	// when it vanishes).
	m.Gradient(b, grad, y)
	if norm := norm2(grad); norm == 0 {
		grad[0] = 1
	}
	project(y, grad, radius, maximize)
	for it := 0; it < iters; it++ {
		m.Gradient(b, grad, y)
		if norm2(grad) == 0 {
			break
		}
		project(y, grad, radius, maximize)
	}
	return y, m.PredictPoint(b, y)
}

// project sets y to ±radius·g/‖g‖.
func project(y, g []float64, radius float64, maximize bool) {
	n := norm2(g)
	s := radius / n
	if !maximize {
		s = -s
	}
	for i := range y {
		y[i] = s * g[i]
	}
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SobolTotal returns the total Sobol sensitivity index of every input
// variable: the fraction of the model's variance attributable to terms
// touching that variable. For an orthonormal Hermite expansion the indices
// are exact sums of squared coefficients — no sampling needed. Variables
// the model never references get exactly 0; the indices of a purely
// additive model sum to 1 (interaction terms are counted once per variable
// they touch, so the sum can exceed 1 in general).
func SobolTotal(m *core.Model, b *basis.Basis) []float64 {
	if b.Size() != m.M {
		panic(fmt.Sprintf("yield: basis size %d does not match model dictionary %d", b.Size(), m.M))
	}
	totalVar := ModelVariance(m, b)
	out := make([]float64, b.Dim)
	if totalVar == 0 {
		return out
	}
	for i, idx := range m.Support {
		term := b.Terms[idx]
		if term.Degree() == 0 {
			continue
		}
		c2 := m.Coef[i] * m.Coef[i]
		for _, vp := range term {
			out[vp.Var] += c2 / totalVar
		}
	}
	return out
}
