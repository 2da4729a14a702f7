package yield

import (
	"math"
	"sort"
	"testing"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refSample is the full-dictionary sampler the compiled path replaced: every
// virtual sample evaluates all M basis functions with basis.Evaluator and
// dots the row with each model's support. It is the independent reference
// the compiled path is pinned against.
func refSample(a *Analyzer, src *rng.Source, n int) map[string][]float64 {
	out := make(map[string][]float64, len(a.Models))
	for name := range a.Models {
		out[name] = make([]float64, n)
	}
	dy := make([]float64, a.B.Dim)
	row := make([]float64, a.B.Size())
	ev := a.B.NewEvaluator()
	for k := 0; k < n; k++ {
		src.NormVec(dy, a.B.Dim)
		ev.EvalRow(row, dy)
		for name, m := range a.Models {
			s := 0.0
			for i, idx := range m.Support {
				s += m.Coef[i] * row[idx]
			}
			out[name][k] = s
		}
	}
	return out
}

// refYield counts passes over refSample's samples of every metric.
func refYield(a *Analyzer, src *rng.Source, n int, specs map[string]Spec) *Result {
	samples := refSample(a, src, n)
	passAll := 0
	passOne := make(map[string]int, len(specs))
	for k := 0; k < n; k++ {
		all := true
		for name, spec := range specs {
			if spec.Pass(samples[name][k]) {
				passOne[name]++
			} else {
				all = false
			}
		}
		if all {
			passAll++
		}
	}
	res := &Result{Yield: float64(passAll) / float64(n), Marginal: map[string]float64{}, N: n}
	for name := range specs {
		res.Marginal[name] = float64(passOne[name]) / float64(n)
	}
	return res
}

// refQuantiles sorts refSample's samples of one metric and reads each
// quantile with stats.Quantile.
func refQuantiles(a *Analyzer, src *rng.Source, n int, metric string, ps []float64) []float64 {
	samples := refSample(a, src, n)[metric]
	sort.Float64s(samples)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = stats.Quantile(samples, p)
	}
	return out
}

// sparseModel draws a bench-shaped model: the constant term plus nnz-1
// distinct dictionary terms, all with N(0, 1) coefficients.
func sparseModel(src *rng.Source, b *basis.Basis, nnz int) *core.Model {
	m := &core.Model{M: b.Size(), Support: []int{0}, Coef: []float64{src.Norm()}}
	seen := map[int]bool{0: true}
	for len(m.Support) < nnz {
		j := 1 + src.Intn(b.Size()-1)
		if seen[j] {
			continue
		}
		seen[j] = true
		m.Support = append(m.Support, j)
		m.Coef = append(m.Coef, src.Norm())
	}
	return m
}

// degreeSupport returns a model over every term of b whose degree is at
// most maxDeg, with coefficients 1, 1/2, 1/3, ...
func degreeSupport(b *basis.Basis, maxDeg int) *core.Model {
	m := &core.Model{M: b.Size()}
	for i, t := range b.Terms {
		if t.Degree() <= maxDeg {
			m.Support = append(m.Support, i)
			m.Coef = append(m.Coef, 1/float64(len(m.Support)))
		}
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompiledSamplingMatchesReference pins Sample, Yield and Quantiles to
// the full-dictionary reference bit for bit: the compiled path uses the
// same Hermite recurrence, factor order and support-order sum, and keeps one
// NormVec draw per sample, so every answer is unchanged.
func TestCompiledSamplingMatchesReference(t *testing.T) {
	type pinCase struct {
		name   string
		b      *basis.Basis
		models map[string]*core.Model
		seeds  []int64
		n      int
	}
	q99 := basis.Quadratic(99)
	src := rng.New(20261020)
	quad := basis.Quadratic(6)
	cubic := basis.TotalDegree(5, 3)
	four := map[string]*core.Model{}
	for _, name := range []string{"gain", "bandwidth", "power", "offset"} {
		four[name] = sparseModel(src, cubic, 8)
	}
	cases := []pinCase{
		{"quadratic99", q99, map[string]*core.Model{"f": sparseModel(src, q99, 20)}, []int64{1, 2, 3}, 1500},
		{"quadratic99-b", q99, map[string]*core.Model{"f": sparseModel(src, q99, 20)}, []int64{4}, 1500},
		{"constant", quad, map[string]*core.Model{"f": {M: quad.Size(), Support: []int{0}, Coef: []float64{2.5}}}, []int64{1}, 500},
		{"linear-on-quadratic", quad, map[string]*core.Model{"f": degreeSupport(quad, 1)}, []int64{1, 2}, 2000},
		{"cubic", cubic, map[string]*core.Model{"f": degreeSupport(cubic, 3)}, []int64{1, 2}, 2000},
		{"four-metrics", cubic, four, []int64{1, 2}, 2000},
	}
	ps := []float64{0.01, 0.25, 0.5, 0.99}
	for _, c := range cases {
		a, err := NewAnalyzer(c.b, c.models)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		specs := map[string]Spec{}
		for name, m := range c.models {
			mu, sd := ModelMean(m, c.b), ModelStd(m, c.b)
			specs[name] = Spec{Low: mu - 1.5*sd, High: mu + 0.5*sd}
		}
		for _, seed := range c.seeds {
			want := refSample(a, rng.New(seed), c.n)
			got := a.Sample(rng.New(seed), c.n)
			for name := range c.models {
				for k := range want[name] {
					if !sameBits(got[name][k], want[name][k]) {
						t.Fatalf("%s seed %d: Sample[%s][%d] = %v, reference %v", c.name, seed, name, k, got[name][k], want[name][k])
					}
				}
			}

			wy := refYield(a, rng.New(seed), c.n, specs)
			gy, err := a.Yield(rng.New(seed), c.n, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(gy.Yield, wy.Yield) || gy.N != wy.N || len(gy.Marginal) != len(wy.Marginal) {
				t.Fatalf("%s seed %d: Yield = %+v, reference %+v", c.name, seed, gy, wy)
			}
			for name, p := range wy.Marginal {
				if !sameBits(gy.Marginal[name], p) {
					t.Fatalf("%s seed %d: marginal %s = %v, reference %v", c.name, seed, name, gy.Marginal[name], p)
				}
			}

			for name := range c.models {
				wq := refQuantiles(a, rng.New(seed), c.n, name, ps)
				gq, err := a.Quantiles(rng.New(seed), c.n, name, ps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wq {
					if !sameBits(gq[i], wq[i]) {
						t.Fatalf("%s seed %d: %s quantile %g = %v, reference %v", c.name, seed, name, ps[i], gq[i], wq[i])
					}
				}
			}
		}
	}
}

// BenchmarkAnalyzerSample times the yield-mc query's virtual Monte Carlo:
// 10,000 samples of a 20-term model over Quadratic(99) (M = 5050).
func BenchmarkAnalyzerSample(b *testing.B) {
	dict := basis.Quadratic(99)
	a, err := NewAnalyzer(dict, map[string]*core.Model{"f": sparseModel(rng.New(1), dict, 20)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Sample(rng.New(int64(i)+1), 10000)
	}
}
