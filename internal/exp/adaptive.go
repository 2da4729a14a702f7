package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mc"
)

// AdaptiveConfig controls AdaptiveFit, which answers the practical question
// the paper leaves to the designer: *how many simulations are enough?* It
// samples in growing batches and stops when the cross-validation error stops
// improving, so the expensive simulator runs only as often as the target
// accuracy requires.
type AdaptiveConfig struct {
	// Metric is the simulator output column to model.
	Metric int
	// InitialK is the first batch size (default 2·folds, min 32).
	InitialK int
	// MaxK caps the total sample budget.
	MaxK int
	// GrowFactor multiplies the sample count per round (default 2).
	GrowFactor float64
	// RelImprove is the stopping threshold: stop when a round improves the
	// CV error by less than this fraction (default 0.1).
	RelImprove float64
	// TargetErr stops early once the CV error falls below it (0 disables).
	TargetErr float64
	// Folds and MaxLambda configure the inner cross-validation.
	Folds, MaxLambda int
	// Seed drives sampling.
	Seed int64
	// Workers is the simulator worker pool size (0 = GOMAXPROCS).
	Workers int
	// Logf, if set, receives one progress line per round, right after that
	// round's cross-validation.
	Logf func(string, ...any)
}

// AdaptiveRound records one batch of the adaptive loop.
type AdaptiveRound struct {
	K       int
	CVError float64
	Lambda  int
}

// AdaptiveResult is the outcome of AdaptiveFit.
type AdaptiveResult struct {
	// Model is the final cross-validated model.
	Model *core.Model
	// Rounds documents the error trajectory.
	Rounds []AdaptiveRound
	// K is the total number of simulator calls spent.
	K int
	// Converged reports whether the loop stopped by the improvement/target
	// criterion rather than the MaxK budget.
	Converged bool
	// Responses holds the simulated metric values for virtual sample indices
	// [0, K) of the cfg.Seed stream, so callers can refit other solvers on
	// the same data without re-simulating.
	Responses []float64
	// SimTime and FitTime split the wall-clock cost between the simulator
	// and the regression/cross-validation — the paper's Table III breakdown.
	SimTime, FitTime time.Duration
}

// AdaptiveFit grows the training set geometrically until the
// cross-validation error plateaus (or reaches TargetErr), reusing all
// previously simulated samples at every round.
func AdaptiveFit(sim circuit.Simulator, b *basis.Basis, fitter core.PathFitter, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	return AdaptiveFitCtx(context.Background(), sim, b, fitter, cfg)
}

// AdaptiveFitCtx is AdaptiveFit with cancellation: ctx flows into the
// simulator worker pool (stopping mid-batch) and the cross-validation
// folds, so a canceled pipeline job abandons the loop within one sample
// per worker.
func AdaptiveFitCtx(ctx context.Context, sim circuit.Simulator, b *basis.Basis, fitter core.PathFitter, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if b.Dim != sim.Dim() {
		return nil, fmt.Errorf("exp: basis dimension %d does not match simulator %d", b.Dim, sim.Dim())
	}
	if cfg.Metric < 0 || cfg.Metric >= len(sim.Metrics()) {
		return nil, fmt.Errorf("exp: metric index %d out of range", cfg.Metric)
	}
	if cfg.Folds < 2 {
		cfg.Folds = 4
	}
	if cfg.MaxLambda < 1 {
		cfg.MaxLambda = 50
	}
	if cfg.InitialK <= 0 {
		cfg.InitialK = 8 * cfg.Folds
		if cfg.InitialK < 32 {
			cfg.InitialK = 32
		}
	}
	if cfg.MaxK < cfg.InitialK {
		return nil, fmt.Errorf("exp: MaxK=%d below InitialK=%d", cfg.MaxK, cfg.InitialK)
	}
	if cfg.GrowFactor <= 1 {
		cfg.GrowFactor = 2
	}
	if cfg.RelImprove <= 0 {
		cfg.RelImprove = 0.1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = discard
	}

	res := &AdaptiveResult{}
	// All rounds share one virtual sample stream, so earlier simulations are
	// reused verbatim when the set grows.
	design := basis.NewGeneratedDesign(b, cfg.MaxK, cfg.Seed)
	var f []float64
	prevErr := 0.0
	k := cfg.InitialK
	for {
		if k > cfg.MaxK {
			k = cfg.MaxK
		}
		// Simulate only the new points.
		vals, simDur, err := mc.SampleVirtualRangeCtx(ctx, sim, len(f), k, cfg.Seed, mc.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		res.SimTime += simDur
		for _, v := range vals {
			f = append(f, v[cfg.Metric])
		}

		rows := make([]int, k)
		for i := range rows {
			rows[i] = i
		}
		fitStart := time.Now()
		// Rounds after the first warm-start from the previous round's model:
		// Gram-maintaining solvers replay its support sweep-free before
		// extending the path on the grown sample set, so each round pays
		// roughly for the path it adds, not the path it already walked.
		fitCtx := ctx
		if res.Model != nil {
			fitCtx = core.WithWarmStart(ctx, res.Model)
		}
		cv, err := core.CrossValidateCtx(fitCtx, fitter, core.Subset(design, rows), f, cfg.Folds, cfg.MaxLambda)
		res.FitTime += time.Since(fitStart)
		if err != nil {
			return nil, fmt.Errorf("exp: adaptive round at K=%d: %w", k, err)
		}
		e := cv.ErrCurve[cv.BestLambda-1]
		res.Rounds = append(res.Rounds, AdaptiveRound{K: k, CVError: e, Lambda: cv.BestLambda})
		res.Model = cv.Model
		res.K = k
		res.Responses = f
		logf("adaptive K=%-5d cv-error=%.3f%% λ=%d", k, 100*e, cv.BestLambda)

		if cfg.TargetErr > 0 && e <= cfg.TargetErr {
			res.Converged = true
			return res, nil
		}
		if len(res.Rounds) > 1 {
			if prevErr > 0 && (prevErr-e)/prevErr < cfg.RelImprove {
				res.Converged = true
				return res, nil
			}
		}
		prevErr = e
		if k == cfg.MaxK {
			return res, nil // budget exhausted
		}
		k = int(float64(k) * cfg.GrowFactor)
	}
}
