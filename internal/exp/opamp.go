package exp

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/basis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mc"
)

// discard is the default progress sink.
func discard(string, ...any) {}

// Fig4Config parameterizes the Fig. 4 sweep: linear OpAmp modeling error vs
// number of training samples for all four solvers and four metrics.
type Fig4Config struct {
	// SparseK are the training sizes for STAR/LAR/OMP (underdetermined).
	SparseK []int
	// LSK are the training sizes for the LS baseline (need K ≥ M = 631).
	LSK []int
	// TestN is the held-out validation sample count.
	TestN int
	// Folds and MaxLambda control cross-validation.
	Folds, MaxLambda int
	// Seed makes the experiment reproducible.
	Seed int64
	// Logf receives progress lines (nil to silence).
	Logf func(string, ...any)
}

// DefaultFig4Config mirrors the paper's sweep at tractable size.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		SparseK:   []int{100, 200, 300, 400, 500, 600},
		LSK:       []int{700, 900, 1200},
		TestN:     2000,
		Folds:     4,
		MaxLambda: 60,
		Seed:      1,
	}
}

// Fig4Result holds the sweep curves: Curves[metric][solver] are (K, error)
// points.
type Fig4Result struct {
	Metrics []string
	Curves  map[string]map[string][]Point
}

// RunFig4 regenerates Fig. 4(a)–(d).
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = discard
	}
	amp, err := circuit.NewOpAmp()
	if err != nil {
		return nil, err
	}
	b := basis.Linear(amp.Dim())
	maxK := 0
	for _, k := range append(append([]int{}, cfg.SparseK...), cfg.LSK...) {
		if k > maxK {
			maxK = k
		}
	}
	logf("fig4: sampling %d training + %d testing points", maxK, cfg.TestN)
	train, err := mc.Sample(amp, maxK, cfg.Seed, mc.Options{})
	if err != nil {
		return nil, err
	}
	test, err := mc.Sample(amp, cfg.TestN, cfg.Seed+1, mc.Options{})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Metrics: amp.Metrics(), Curves: map[string]map[string][]Point{}}
	for _, m := range res.Metrics {
		res.Curves[m] = map[string][]Point{}
	}
	for mi, metric := range amp.Metrics() {
		fAll := train.MetricColumn(mi)
		fTest := test.MetricColumn(mi)
		for _, spec := range DefaultSolvers() {
			ks := cfg.SparseK
			if spec.Fitter == nil {
				ks = cfg.LSK
			}
			for _, k := range ks {
				pts := train.Points[:k]
				f := fAll[:k]
				var fit FitResult
				var err error
				if spec.Fitter == nil {
					fit, err = FitLS(b, pts, f)
				} else {
					fit, err = FitSparse(spec.Fitter, b, pts, f, cfg.Folds, cfg.MaxLambda)
				}
				if err != nil {
					return nil, fmt.Errorf("fig4 %s/%s K=%d: %w", metric, spec.Name, k, err)
				}
				e := TestError(fit.Model, b, test.Points, fTest)
				res.Curves[metric][spec.Name] = append(res.Curves[metric][spec.Name], Point{K: k, Err: e})
				logf("fig4 %-9s %-4s K=%-5d err=%.3f%% λ=%d", metric, spec.Name, k, 100*e, fit.Lambda)
			}
		}
	}
	return res, nil
}

// Table1Config parameterizes the linear OpAmp cost comparison (Table I).
type Table1Config struct {
	LSK, SparseK     int
	TestN            int
	Folds, MaxLambda int
	Seed             int64
	Logf             func(string, ...any)
}

// DefaultTable1Config mirrors Table I: LS at 1200 samples, sparse at 600.
func DefaultTable1Config() Table1Config {
	return Table1Config{LSK: 1200, SparseK: 600, TestN: 2000, Folds: 4, MaxLambda: 60, Seed: 2}
}

// Table1Result holds per-solver cost rows; errors are averaged over the four
// metrics.
type Table1Result struct {
	Rows []CostRow
}

// RunTable1 regenerates Table I.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = discard
	}
	amp, err := circuit.NewOpAmp()
	if err != nil {
		return nil, err
	}
	b := basis.Linear(amp.Dim())
	logf("table1: sampling %d training + %d testing points", cfg.LSK, cfg.TestN)
	train, err := mc.Sample(amp, cfg.LSK, cfg.Seed, mc.Options{})
	if err != nil {
		return nil, err
	}
	test, err := mc.Sample(amp, cfg.TestN, cfg.Seed+1, mc.Options{})
	if err != nil {
		return nil, err
	}
	perSample := train.SimTime / time.Duration(train.Len())

	var rows []CostRow
	for _, spec := range DefaultSolvers() {
		k := cfg.SparseK
		if spec.Fitter == nil {
			k = cfg.LSK
		}
		var fitTotal time.Duration
		var errSum float64
		lambda := 0
		for mi := range amp.Metrics() {
			f := train.MetricColumn(mi)[:k]
			var fit FitResult
			var err error
			if spec.Fitter == nil {
				fit, err = FitLS(b, train.Points[:k], f)
			} else {
				fit, err = FitSparse(spec.Fitter, b, train.Points[:k], f, cfg.Folds, cfg.MaxLambda)
			}
			if err != nil {
				return nil, fmt.Errorf("table1 %s metric %d: %w", spec.Name, mi, err)
			}
			fitTotal += fit.FitTime
			errSum += TestError(fit.Model, b, test.Points, test.MetricColumn(mi))
			if fit.Lambda > lambda {
				lambda = fit.Lambda
			}
		}
		row := CostRow{
			Solver:  spec.Name,
			K:       k,
			SimCost: perSample * time.Duration(k),
			FitCost: fitTotal,
			Err:     errSum / float64(len(amp.Metrics())),
			Lambda:  lambda,
		}
		rows = append(rows, row)
		logf("table1 %-4s K=%-5d sim=%s fit=%s err=%.2f%%", row.Solver, row.K,
			FormatDuration(row.SimCost), FormatDuration(row.FitCost), 100*row.Err)
	}
	return &Table1Result{Rows: rows}, nil
}

// QuadConfig parameterizes the quadratic OpAmp experiment (Tables II+III):
// screen the most important parameters with a linear fit, build a quadratic
// basis over them, and compare all four solvers.
type QuadConfig struct {
	// TopP is the number of screened parameters (paper: 200 → M = 20301;
	// scaled default: 50 → M = 1326).
	TopP int
	// ScreenK is the sample count for the screening linear fit.
	ScreenK int
	// LSK and SparseK are the quadratic training sizes.
	LSK, SparseK     int
	TestN            int
	Folds, MaxLambda int
	Seed             int64
	Logf             func(string, ...any)
}

// DefaultQuadConfig is the scaled default documented in EXPERIMENTS.md.
func DefaultQuadConfig() QuadConfig {
	return QuadConfig{
		TopP: 50, ScreenK: 600, LSK: 1600, SparseK: 400,
		TestN: 2000, Folds: 4, MaxLambda: 120, Seed: 3,
	}
}

// PaperQuadConfig uses the paper's sizes. Its sparse fits (K = 1 000) are
// about the size of the full-scale Table IV's, which run in seconds, but its
// LS baseline at K = 25 000 over M = 20 301 needs a ≈4 GB dense design.
func PaperQuadConfig() QuadConfig {
	return QuadConfig{
		TopP: 200, ScreenK: 600, LSK: 25000, SparseK: 1000,
		TestN: 5000, Folds: 4, MaxLambda: 150, Seed: 3,
	}
}

// QuadResult holds Tables II and III: per-metric errors and per-solver costs.
type QuadResult struct {
	// M is the quadratic dictionary size.
	M int
	// Err[metric][solver] is the relative RMS modeling error (Table II).
	Err map[string]map[string]float64
	// Rows are the aggregate cost rows (Table III); fitting cost sums the
	// four metrics, matching the paper's accounting.
	Rows []CostRow
	// SelectedBases[metric] is OMP's cross-validated λ, reported in the
	// paper's text ("88 basis functions for gain, …").
	SelectedBases map[string]int
}

// RunQuad regenerates Tables II and III.
func RunQuad(cfg QuadConfig) (*QuadResult, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = discard
	}
	amp, err := circuit.NewOpAmp()
	if err != nil {
		return nil, err
	}
	linB := basis.Linear(amp.Dim())

	// Screening pass: rank parameters by |linear coefficient| summed over
	// metrics (Section V-A2 ranks by linear model coefficient magnitude).
	logf("quad: screening with %d samples", cfg.ScreenK)
	screen, err := mc.Sample(amp, cfg.ScreenK, cfg.Seed, mc.Options{})
	if err != nil {
		return nil, err
	}
	importance := make([]float64, amp.Dim())
	for mi := range amp.Metrics() {
		f := screen.MetricColumn(mi)
		fit, err := FitSparse(&core.OMP{}, linB, screen.Points, f, cfg.Folds, cfg.MaxLambda)
		if err != nil {
			return nil, fmt.Errorf("quad screening metric %d: %w", mi, err)
		}
		norm := 0.0
		for _, c := range fit.Model.Coef {
			norm += c * c
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i, idx := range fit.Model.Support {
			if idx == 0 {
				continue // constant term has no variable
			}
			v := math.Abs(fit.Model.Coef[i]) / norm
			importance[idx-1] += v // linear term m maps to variable m-1
		}
	}
	type ranked struct {
		v int
		w float64
	}
	rank := make([]ranked, amp.Dim())
	for i := range rank {
		rank[i] = ranked{v: i, w: importance[i]}
	}
	sort.Slice(rank, func(a, b int) bool { return rank[a].w > rank[b].w })
	if cfg.TopP > len(rank) {
		cfg.TopP = len(rank)
	}
	keep := make([]int, cfg.TopP)
	for i := range keep {
		keep[i] = rank[i].v
	}
	sort.Ints(keep)
	logf("quad: kept top %d parameters", len(keep))

	// Reduced simulator view: evaluate the full OpAmp but expose only the
	// screened factors as model inputs; unscreened factors are fixed at 0
	// (their influence is what the quadratic model deliberately ignores).
	red := &reducedSim{inner: amp, keep: keep}
	quadB := basis.Quadratic(len(keep))

	maxTrain := cfg.LSK
	if cfg.SparseK > maxTrain {
		maxTrain = cfg.SparseK
	}
	logf("quad: sampling %d training + %d testing points (M=%d)", maxTrain, cfg.TestN, quadB.Size())
	train, err := mc.Sample(red, maxTrain, cfg.Seed+1, mc.Options{})
	if err != nil {
		return nil, err
	}
	test, err := mc.Sample(red, cfg.TestN, cfg.Seed+2, mc.Options{})
	if err != nil {
		return nil, err
	}
	perSample := train.SimTime / time.Duration(train.Len())

	res := &QuadResult{
		M:             quadB.Size(),
		Err:           map[string]map[string]float64{},
		SelectedBases: map[string]int{},
	}
	for _, m := range amp.Metrics() {
		res.Err[m] = map[string]float64{}
	}
	for _, spec := range DefaultSolvers() {
		k := cfg.SparseK
		if spec.Fitter == nil {
			k = cfg.LSK
			if k < quadB.Size() {
				logf("quad: skipping LS (K=%d < M=%d)", k, quadB.Size())
				continue
			}
		}
		var fitTotal time.Duration
		var errSum float64
		lambda := 0
		for mi, metric := range amp.Metrics() {
			f := train.MetricColumn(mi)[:k]
			var fit FitResult
			var err error
			if spec.Fitter == nil {
				fit, err = FitLS(quadB, train.Points[:k], f)
			} else {
				fit, err = FitSparse(spec.Fitter, quadB, train.Points[:k], f, cfg.Folds, cfg.MaxLambda)
			}
			if err != nil {
				return nil, fmt.Errorf("quad %s/%s: %w", spec.Name, metric, err)
			}
			e := TestError(fit.Model, quadB, test.Points, test.MetricColumn(mi))
			res.Err[metric][spec.Name] = e
			fitTotal += fit.FitTime
			errSum += e
			if fit.Lambda > lambda {
				lambda = fit.Lambda
			}
			if spec.Name == "OMP" {
				res.SelectedBases[metric] = fit.Lambda
			}
			logf("quad %-9s %-4s err=%.3f%% λ=%d", metric, spec.Name, 100*e, fit.Lambda)
		}
		res.Rows = append(res.Rows, CostRow{
			Solver:  spec.Name,
			K:       k,
			SimCost: perSample * time.Duration(k),
			FitCost: fitTotal,
			Err:     errSum / float64(len(amp.Metrics())),
			Lambda:  lambda,
		})
	}
	return res, nil
}

// reducedSim exposes a factor subset of an inner simulator.
type reducedSim struct {
	inner circuit.Simulator
	keep  []int
}

// Dim implements circuit.Simulator.
func (r *reducedSim) Dim() int { return len(r.keep) }

// Metrics implements circuit.Simulator.
func (r *reducedSim) Metrics() []string { return r.inner.Metrics() }

// Evaluate implements circuit.Simulator by scattering the reduced factors
// into the full factor vector.
func (r *reducedSim) Evaluate(dy []float64) ([]float64, error) {
	full := make([]float64, r.inner.Dim())
	for i, idx := range r.keep {
		full[idx] = dy[i]
	}
	return r.inner.Evaluate(full)
}
