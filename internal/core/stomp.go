package core

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// StOMP is stagewise orthogonal matching pursuit (Donoho et al.): instead of
// selecting the single most-correlated basis vector per iteration like OMP,
// it admits *every* basis vector whose correlation with the residual exceeds
// a threshold proportional to the residual's noise level, then re-fits all
// active coefficients by least squares.
//
// With only a handful of stages, StOMP reaches sparsity levels that cost OMP
// one full Gᵀ·res pass per basis function — the relevant regime is the
// paper's M ≈ 10⁵…10⁶ dictionaries, where those passes dominate. The price
// is coarser selection: bases enter in batches, so the path is piecewise
// (recorded per stage) rather than per-basis.
//
// As an engine strategy, StOMP shares OMP's whole substrate and differs only
// in its admission rule: thresholded batches instead of the single argmax.
type StOMP struct {
	// Threshold is the admission multiplier t in t·σ_res (default 2.5, the
	// range Donoho et al. recommend is 2–3).
	Threshold float64
	// MaxStages bounds the number of stages (default 10).
	MaxStages int
	// Tol stops once the relative residual falls below it.
	Tol float64
}

// Name implements PathFitter.
func (s *StOMP) Name() string { return "StOMP" }

func (s *StOMP) threshold() float64 {
	if s.Threshold > 0 {
		return s.Threshold
	}
	return 2.5
}

func (s *StOMP) stages() int {
	if s.MaxStages > 0 {
		return s.MaxStages
	}
	return 10
}

// FitPath implements PathFitter. Unlike OMP's strictly-nested path, each
// recorded model corresponds to one stage; intermediate sparsity levels
// reuse the stage model that covers them.
func (s *StOMP) FitPath(d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return s.FitPathCtx(nil, d, f, maxLambda)
}

// FitPathCtx implements ContextFitter: fc is polled per stage and per
// admission candidate (a stage can admit hundreds of columns).
func (s *StOMP) FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	as, err := newActiveSet(fc, d, f, maxLambda, activeSetConfig{
		solver: "StOMP", clampRows: true, gram: true,
	})
	if err != nil {
		return nil, err
	}
	path := &Path{}
	// Continuation: the stage counter is StOMP's only extra beyond the
	// engine state — resuming restarts the loop at the stage after the
	// checkpointed one. Without a checkpoint, a warm-start model's support
	// is replayed first (sweep-free), then staged selection continues.
	startStage := 0
	if ck, err := fc.resumeFor("StOMP"); err != nil {
		return nil, err
	} else if ck != nil {
		if err := as.restore(ck, path); err != nil {
			return nil, err
		}
		startStage = ck.Stage
	} else if err := warmReplay(fc, as, path); err != nil {
		return nil, err
	}
	completed := startStage
	capture := func(ck *FitCheckpoint) { ck.Stage = completed }
	for stage := startStage; stage < s.stages() && as.Size() < as.MaxLambda(); stage++ {
		if err := as.Err(); err != nil {
			return nil, err
		}
		xi, err := as.CorrelateResidual()
		if err != nil {
			return nil, err
		}
		// Admission threshold: t·σ where σ = ‖res‖/√K estimates the
		// residual noise scale (correlations of pure-noise columns are
		// ≈ σ·√K ⇒ compare |ξ|/K against t·σ/√K, i.e. |ξ| against t·σ·√K).
		sigma := linalg.Norm2(as.res) / math.Sqrt(float64(as.k))
		thresh := s.threshold() * sigma * math.Sqrt(float64(as.k))
		var cands []stompCand
		for j, v := range xi {
			if as.active[j] || as.excluded[j] {
				continue
			}
			if a := math.Abs(v); a > thresh {
				cands = append(cands, stompCand{j, a})
			}
		}
		fallback := len(cands) == 0
		if fallback {
			// Fall back to the single best column so progress is guaranteed
			// (matching OMP's behaviour when the stage admits nothing).
			best := as.SelectMostCorrelated(xi)
			if best == -1 {
				break
			}
			cands = append(cands, stompCand{best, math.Abs(xi[best])})
		}
		// Strongest first so the λ cap keeps the best candidates.
		sortCandsDesc(cands)
		admitted := 0
		for _, c := range cands {
			if as.Size() >= as.MaxLambda() {
				break
			}
			if err := as.Err(); err != nil {
				return nil, err
			}
			ok, err := as.TryAppend(c.j)
			if err != nil {
				return nil, err
			}
			if ok {
				admitted++
			}
		}
		if admitted == 0 {
			break
		}
		coef, err := as.RefitActive()
		if err != nil {
			return nil, err
		}
		prevRes := linalg.Norm2(as.res)
		as.RecomputeResidual(coef)
		curRes := linalg.Norm2(as.res)
		// A fallback-only stage that barely reduces the residual is fitting
		// noise: no remaining basis carries signal, so terminate.
		if fallback && curRes > 0.9*prevRes {
			break
		}
		as.Record(path, coef, -1) // batch admission: no single basis
		completed = stage + 1
		if checkpointAfter(fc, as, path, capture) {
			return path, nil
		}
		if s.Tol > 0 && curRes <= s.Tol*as.fNorm && as.fNorm > 0 {
			break
		}
	}
	if len(path.Models) == 0 {
		return nil, as.errDegenerateNoSelection()
	}
	captureCheckpoint(fc, as, path, capture)
	return path, nil
}

// stompCand is one admission candidate of a StOMP stage.
type stompCand struct {
	j   int
	abs float64
}

// sortCandsDesc sorts candidates by descending correlation (insertion sort;
// candidate lists are short).
func sortCandsDesc(c []stompCand) {
	for i := 1; i < len(c); i++ {
		for k := i; k > 0 && c[k].abs > c[k-1].abs; k-- {
			c[k], c[k-1] = c[k-1], c[k]
		}
	}
}

var _ ContextFitter = (*StOMP)(nil)
