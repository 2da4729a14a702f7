// Package repro benchmarks every table and figure of the paper's evaluation
// plus the ablations called out in DESIGN.md. Each benchmark measures the
// computational kernel behind one reported quantity (a sweep point of
// Fig. 4, a fitting-cost cell of Tables I/III/IV, one simulator invocation,
// …) at a scale small enough for testing.B iteration counts. The full-size
// experiments are produced by cmd/paperbench; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package repro

import (
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/rng"
)

// opampFix lazily samples a shared OpAmp dataset: 700 training points (the
// LS baseline needs K ≥ M = 631) and the offset metric, which has the most
// pronounced sparse structure.
var opampFix struct {
	once  sync.Once
	dict  *basis.Basis
	train *mc.Dataset
	f     []float64
}

func opampData(b *testing.B) (*basis.Basis, *mc.Dataset, []float64) {
	opampFix.once.Do(func() {
		amp, err := circuit.NewOpAmp()
		if err != nil {
			b.Fatal(err)
		}
		ds, err := mc.Sample(amp, 700, 1, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		opampFix.dict = basis.Linear(amp.Dim())
		opampFix.train = ds
		f, err := ds.Metric("offset")
		if err != nil {
			b.Fatal(err)
		}
		opampFix.f = f
	})
	return opampFix.dict, opampFix.train, opampFix.f
}

// BenchmarkFig4SweepPointOMP measures one (K, error) point of the Fig. 4
// curves: a cross-validated OMP fit at K=150 ≪ M=631.
func BenchmarkFig4SweepPointOMP(b *testing.B) {
	dict, train, f := opampData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.FitSparse(&core.OMP{}, dict, train.Points[:150], f[:150], 4, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Fit measures the "fitting cost" row of Table I per solver:
// LS on the over-determined 700-sample system, the sparse solvers (with
// cross-validation) on 300 samples.
func BenchmarkTable1Fit(b *testing.B) {
	dict, train, f := opampData(b)
	b.Run("LS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exp.FitLS(dict, train.Points, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, spec := range exp.SparseSolvers() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.FitSparse(spec.Fitter, dict, train.Points[:300], f[:300], 4, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// quadFix lazily samples a quadratic-screened OpAmp dataset: top-30
// parameters, M = 496 quadratic dictionary.
var quadFix struct {
	once  sync.Once
	dict  *basis.Basis
	train *mc.Dataset
	f     []float64
}

func quadData(b *testing.B) (*basis.Basis, *mc.Dataset, []float64) {
	quadFix.once.Do(func() {
		syn, err := circuit.NewSynthetic(5, 30, 2, 12, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := mc.Sample(syn, 600, 2, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		quadFix.dict = basis.Quadratic(syn.Dim())
		quadFix.train = ds
		f, err := ds.Metric("f")
		if err != nil {
			b.Fatal(err)
		}
		quadFix.f = f
	})
	return quadFix.dict, quadFix.train, quadFix.f
}

// BenchmarkTable2QuadraticError measures the Table II kernel: one
// cross-validated quadratic fit per solver on a sparse quadratic response
// (M=496, K=200).
func BenchmarkTable2QuadraticError(b *testing.B) {
	dict, train, f := quadData(b)
	for _, spec := range exp.SparseSolvers() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.FitSparse(spec.Fitter, dict, train.Points[:200], f[:200], 4, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3QuadraticCost measures the Table III cost split: the LS
// baseline on the over-determined quadratic system (K=600 ≥ M=496) vs the
// OMP fit at K=200.
func BenchmarkTable3QuadraticCost(b *testing.B) {
	dict, train, f := quadData(b)
	b.Run("LS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exp.FitLS(dict, train.Points, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OMP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exp.FitSparse(&core.OMP{}, dict, train.Points[:200], f[:200], 4, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sramFix lazily builds a small SRAM testbench and dataset.
var sramFix struct {
	once  sync.Once
	sram  *circuit.SRAM
	dict  *basis.Basis
	train *mc.Dataset
	f     []float64
}

func sramData(b *testing.B) (*circuit.SRAM, *basis.Basis, *mc.Dataset, []float64) {
	sramFix.once.Do(func() {
		s, err := circuit.NewSRAM(circuit.SRAMConfig{Rows: 8, Cols: 6})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := mc.Sample(s, 100, 3, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sramFix.sram = s
		sramFix.dict = basis.Linear(s.Dim())
		sramFix.train = ds
		f, err := ds.Metric("read_delay")
		if err != nil {
			b.Fatal(err)
		}
		sramFix.f = f
	})
	return sramFix.sram, sramFix.dict, sramFix.train, sramFix.f
}

// BenchmarkTable4Simulation measures the dominant cost of Table IV: one
// transistor-level transient simulation of the SRAM read path.
func BenchmarkTable4Simulation(b *testing.B) {
	sram, _, _, _ := sramData(b)
	dy := make([]float64, sram.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sram.Evaluate(dy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Fit measures the Table IV fitting-cost row for the sparse
// solvers on the SRAM dataset.
func BenchmarkTable4Fit(b *testing.B) {
	_, dict, train, f := sramData(b)
	for _, spec := range exp.SparseSolvers() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.FitSparse(spec.Fitter, dict, train.Points, f, 4, 25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Profile measures extracting the sorted coefficient-magnitude
// series of Fig. 6 from a fitted model.
func BenchmarkFig6Profile(b *testing.B) {
	_, dict, train, f := sramData(b)
	d := basis.NewDenseDesign(dict, train.Points)
	model, err := (&core.OMP{}).Fit(d, f, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig6Series(model)
	}
}

// --- Ablations (DESIGN.md) -------------------------------------------------

// naiveOMPFit re-solves the active-set least squares from scratch with a
// fresh QR at every iteration — the baseline the incremental Cholesky update
// inside core.OMP is compared against.
func naiveOMPFit(d basis.Design, f []float64, lambda int) (*core.Model, error) {
	k, m := d.Rows(), d.Cols()
	res := append([]float64(nil), f...)
	xi := make([]float64, m)
	used := make([]bool, m)
	var support []int
	var coef []float64
	for len(support) < lambda {
		d.MulTransVec(xi, res)
		best, bestAbs := -1, 0.0
		for j, v := range xi {
			if used[j] {
				continue
			}
			if v < 0 {
				v = -v
			}
			if best == -1 || v > bestAbs {
				best, bestAbs = j, v
			}
		}
		used[best] = true
		support = append(support, best)
		// From-scratch refit.
		g := linalg.NewMatrix(k, len(support))
		col := make([]float64, k)
		for i, idx := range support {
			d.Column(col, idx)
			g.SetCol(i, col)
		}
		var err error
		coef, err = linalg.SolveLeastSquares(g, f)
		if err != nil {
			return nil, err
		}
		pred := g.MulVec(nil, coef)
		for i := range res {
			res[i] = f[i] - pred[i]
		}
	}
	return &core.Model{M: m, Support: support, Coef: coef}, nil
}

// BenchmarkAblationOMPRefit compares the incremental-Cholesky OMP against
// the naive refit-from-scratch variant at λ=40.
func BenchmarkAblationOMPRefit(b *testing.B) {
	dict, train, f := opampData(b)
	d := basis.NewDenseDesign(dict, train.Points[:300])
	fs := f[:300]
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&core.OMP{}).Fit(d, fs, 40); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-refit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := naiveOMPFit(d, fs, 40); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLazyVsDense compares the two design-matrix
// representations on the inner-product kernel Gᵀ·x (eq. 14) that dominates
// every solver iteration.
func BenchmarkAblationLazyVsDense(b *testing.B) {
	dict, train, _ := quadData(b)
	pts := train.Points[:300]
	x := make([]float64, 300)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.Run("dense", func(b *testing.B) {
		d := basis.NewDenseDesign(dict, pts)
		dst := make([]float64, dict.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MulTransVec(dst, x)
		}
	})
	b.Run("lazy", func(b *testing.B) {
		d := basis.NewLazyDesign(dict, pts)
		dst := make([]float64, dict.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MulTransVec(dst, x)
		}
	})
}

// BenchmarkAblationCrossValFolds measures the fold-count trade-off of
// Section IV-C: more folds cost proportionally more fitting time.
func BenchmarkAblationCrossValFolds(b *testing.B) {
	dict, train, f := opampData(b)
	d := basis.NewDenseDesign(dict, train.Points[:200])
	fs := f[:200]
	for _, folds := range []int{2, 4, 10} {
		b.Run(map[int]string{2: "Q2", 4: "Q4", 10: "Q10"}[folds], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CrossValidate(&core.OMP{}, d, fs, folds, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLARLasso compares plain LARS against the lasso-modified
// path (drops + refactorizations).
func BenchmarkAblationLARLasso(b *testing.B) {
	dict, train, f := opampData(b)
	d := basis.NewDenseDesign(dict, train.Points[:300])
	fs := f[:300]
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&core.LAR{}).FitPath(d, fs, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lasso", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&core.LAR{Lasso: true}).FitPath(d, fs, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSolverZoo compares every sparse solver (including the
// extensions beyond the paper's three) on the same cross-validated fit.
func BenchmarkAblationSolverZoo(b *testing.B) {
	dict, train, f := opampData(b)
	pts, fs := train.Points[:300], f[:300]
	solvers := []core.PathFitter{
		&core.OMP{}, &core.STAR{}, &core.LAR{}, &core.LAR{Lasso: true},
		&core.CD{}, &core.StOMP{},
	}
	names := []string{"OMP", "STAR", "LAR", "LAR-lasso", "CD", "StOMP"}
	for i, s := range solvers {
		b.Run(names[i], func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := exp.FitSparse(s, dict, pts, fs, 4, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBICvsCV compares the two λ-selection strategies: one
// path fit + information criterion vs Q-fold cross-validation.
func BenchmarkAblationBICvsCV(b *testing.B) {
	dict, train, f := opampData(b)
	d := basis.NewDenseDesign(dict, train.Points[:300])
	fs := f[:300]
	b.Run("BIC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectIC(&core.OMP{}, d, fs, 30, core.BIC); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CV4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CrossValidate(&core.OMP{}, d, fs, 4, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpiceOpAmpSimulation measures the per-sample cost of the
// transistor-level OpAmp testbench (one DC + AC sweep), the dominant cost of
// the table1spice extension experiment.
func BenchmarkSpiceOpAmpSimulation(b *testing.B) {
	amp, err := circuit.NewSpiceOpAmp()
	if err != nil {
		b.Fatal(err)
	}
	dy := make([]float64, amp.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := amp.Evaluate(dy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGeneratedDesignParallel measures the parallel
// row-sharded Gᵀ·x kernel of the memory-bounded generated design against
// the stored-points lazy design at matched sizes.
func BenchmarkAblationGeneratedDesignParallel(b *testing.B) {
	const k, dim = 400, 500
	dict := basis.Linear(dim)
	gen := basis.NewGeneratedDesign(dict, k, 9)
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = rng.RowPoint(nil, 9, i, dim)
	}
	lazy := basis.NewLazyDesign(dict, pts)
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	dst := make([]float64, dict.Size())
	b.Run("generated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen.MulTransVec(dst, x)
		}
	})
	b.Run("lazy-stored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lazy.MulTransVec(dst, x)
		}
	})
}
