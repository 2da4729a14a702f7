package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/basis"
)

// Typed solver failures. Callers branch on these with errors.Is: the serving
// layer maps ErrDegenerate and ErrNonFinite to client errors (the dataset is
// at fault) while other failures stay internal. Before these existed the
// degenerate paths — rank-deficient active sets, all-zero responses, NaN
// measurements — were a mix of ad-hoc errors and panics deep in the linear
// algebra, and one bad fit request could take the whole daemon down.
var (
	// ErrDegenerate marks problems on which the solver cannot select any
	// basis: rank-deficient active sets, responses uncorrelated with the
	// whole dictionary, or exhausted dictionaries.
	ErrDegenerate = errors.New("degenerate problem: no admissible basis vector")
	// ErrNonFinite marks NaN or ±Inf values in the response vector or the
	// design matrix.
	ErrNonFinite = errors.New("non-finite value (NaN or Inf) in input")
)

// degenEps is the relative correlation floor below which greedy solvers
// treat a candidate basis as uncorrelated with the residual: selecting such a
// column fits floating-point noise and, on an all-zero response, used to
// admit arbitrary columns with zero coefficients.
const degenEps = 1e-12

// errDegenerate wraps ErrDegenerate with solver context.
func errDegenerate(solver, detail string) error {
	return fmt.Errorf("core: %s: %s: %w", solver, detail, ErrDegenerate)
}

// checkFiniteVec returns ErrNonFinite when v contains NaN or ±Inf. label
// names the vector in the error ("response", "correlation", …).
func checkFiniteVec(label string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: %s entry %d is %v: %w", label, i, x, ErrNonFinite)
		}
	}
	return nil
}

// FitEvent is one solver path iteration, as reported to a FitObserver. It
// is the paper-faithful telemetry unit: OMP/LAR/STAR walk the dictionary
// one basis selection at a time (Efron et al. 2004; Li DAC'09), so each
// event names the chosen basis, the active-set size and the residual norm
// after the step. Batch solvers (StOMP stages, CD grid points) admit
// several bases per step and report Basis = -1.
type FitEvent struct {
	// Stage labels which fit produced the event when a higher-level driver
	// runs several (cross-validation folds, the final refit); "" otherwise.
	Stage string
	// Iter is the 1-based iteration number within one path fit.
	Iter int
	// Basis is the selected basis index, or -1 for batch steps.
	Basis int
	// Active is the active-set size after the iteration.
	Active int
	// Residual is ‖res‖₂ after the iteration.
	Residual float64
	// Elapsed is the wall-clock time since the path fit started.
	Elapsed time.Duration
	// Workers is the effective goroutine count of the engine's parallel
	// correlation sweep for this fit (1 = serial).
	Workers int
}

// FitObserver receives per-iteration solver telemetry. Observers are called
// synchronously from the solver goroutine and must be fast; anything
// expensive belongs behind a channel or a mutex-guarded append.
type FitObserver func(FitEvent)

// observerKey/stageKey carry fit telemetry configuration in a context.
type obsCtxKey int

const (
	observerCtxKey obsCtxKey = iota
	stageCtxKey
	checkpointPlanCtxKey
	resumeCtxKey
	warmStartCtxKey
)

// WithFitObserver arranges for solver path fits run under ctx (through
// FitPathContext, CrossValidateCtx, or any ContextFitter) to report each
// iteration to obs.
func WithFitObserver(ctx context.Context, obs FitObserver) context.Context {
	return context.WithValue(ctx, observerCtxKey, obs)
}

// WithFitStage labels events emitted under ctx with a stage name.
// CrossValidateCtx uses it to distinguish fold fits from the final refit.
func WithFitStage(ctx context.Context, stage string) context.Context {
	return context.WithValue(ctx, stageCtxKey, stage)
}

// CheckpointPlan asks a path fit run under WithCheckpointPlan to capture
// its engine state into CK. With After > 0 the fit stops as soon as that
// many path models have been recorded — simulating an interruption — and
// captures the state at that point; with After == 0 the fit runs to its
// natural end and captures the final state (what the serving layer persists
// alongside a published model for later refinement). If the path finishes
// before reaching After, the final state is captured anyway.
type CheckpointPlan struct {
	// After is the recorded-model count at which to stop and capture
	// (0 = capture at the natural end without stopping).
	After int
	// CK receives the captured checkpoint.
	CK *FitCheckpoint
}

// WithCheckpointPlan arranges for solver path fits run under ctx to capture
// a FitCheckpoint per plan. A nil plan clears any inherited plan (used by
// CrossValidateCtx so fold fits don't race over the final refit's capture).
func WithCheckpointPlan(ctx context.Context, plan *CheckpointPlan) context.Context {
	return context.WithValue(ctx, checkpointPlanCtxKey, plan)
}

// WithResumeCheckpoint arranges for the next path fit run under ctx to
// resume from ck instead of starting cold. The fit must use ck's solver and
// a design whose leading ck.K rows are unchanged; Gram-maintaining solvers
// additionally accept appended rows (folded in as rank-one factor updates).
// A nil ck clears any inherited checkpoint.
func WithResumeCheckpoint(ctx context.Context, ck *FitCheckpoint) context.Context {
	return context.WithValue(ctx, resumeCtxKey, ck)
}

// WithWarmStart seeds path fits run under ctx with a previously fitted
// model: solvers that support it (OMP, StOMP) re-admit the model's support
// in its original selection order without correlation sweeps — re-fitting
// coefficients on the current data — and only then continue normal
// selection. Unlike WithResumeCheckpoint this is valid on *any* data (CV
// fold subsets, grown sample sets); solvers without replay support ignore
// it and fit cold. A nil model clears any inherited warm start.
func WithWarmStart(ctx context.Context, m *Model) context.Context {
	return context.WithValue(ctx, warmStartCtxKey, m)
}

// FitContext threads cancellation from a context.Context into solver inner
// loops. Solvers call Err at the top of each path iteration (and sweep);
// the poll is amortized over checkStride calls so it stays cheap even when
// sprinkled into tight loops. A nil *FitContext never cancels, which is the
// zero-overhead path used by the context-free FitPath entry points.
//
// A FitContext also carries the optional telemetry observer (see
// WithFitObserver): solvers report each completed path iteration through
// Observe, which is a nil check when no observer is armed.
type FitContext struct {
	ctx context.Context
	n   uint

	// eng is the solver engine serving this fit: correlation scratch,
	// residual buffer and parallel-sweep worker count. It is created
	// lazily on first use; CrossValidateCtx pre-attaches one shared
	// engine so all fold fits reuse a single allocation.
	eng     *Engine
	workers int // requested sweep workers from WithFitWorkers (0 = auto)

	observer FitObserver
	stage    string
	start    time.Time
	iter     int

	// plan/resume/warm carry the incremental-refit configuration from
	// WithCheckpointPlan / WithResumeCheckpoint / WithWarmStart.
	plan   *CheckpointPlan
	resume *FitCheckpoint
	warm   *Model
}

// checkStride is how many Err calls are skipped between context polls. Solver
// iterations each cost at least one O(K·M) pass, so even a stride of 1 would
// be invisible; 8 keeps the hook harmless inside tighter per-candidate loops.
const checkStride = 8

// NewFitContext wraps ctx for solver consumption. A nil ctx behaves like
// context.Background().
func NewFitContext(ctx context.Context) *FitContext {
	if ctx == nil {
		return nil
	}
	fc := &FitContext{ctx: ctx, workers: FitWorkersFromContext(ctx)}
	if obs, ok := ctx.Value(observerCtxKey).(FitObserver); ok && obs != nil {
		fc.observer = obs
		fc.start = time.Now()
		fc.stage, _ = ctx.Value(stageCtxKey).(string)
	}
	if p, ok := ctx.Value(checkpointPlanCtxKey).(*CheckpointPlan); ok && p != nil {
		fc.plan = p
	}
	if ck, ok := ctx.Value(resumeCtxKey).(*FitCheckpoint); ok && ck != nil {
		fc.resume = ck
	}
	if m, ok := ctx.Value(warmStartCtxKey).(*Model); ok && m != nil {
		fc.warm = m
	}
	return fc
}

// resumeFor returns the checkpoint to resume from for the named solver, or
// nil, and errors when a checkpoint is armed for a *different* solver —
// silently fitting cold there would hide a wiring bug in the caller.
func (fc *FitContext) resumeFor(solver string) (*FitCheckpoint, error) {
	if fc == nil || fc.resume == nil {
		return nil, nil
	}
	if fc.resume.Solver != solver {
		return nil, fmt.Errorf("core: %s fit cannot resume a %s checkpoint", solver, fc.resume.Solver)
	}
	return fc.resume, nil
}

// warmStart returns the warm-start model armed on the context, if any.
func (fc *FitContext) warmStart() *Model {
	if fc == nil {
		return nil
	}
	return fc.warm
}

// engine returns the fit's solver engine, creating one on first use. A nil
// FitContext (the context-free FitPath entry points) gets a fresh automatic
// engine per call.
func (fc *FitContext) engine() *Engine {
	if fc == nil {
		return NewEngine(0)
	}
	if fc.eng == nil {
		fc.eng = NewEngine(fc.workers)
	}
	return fc.eng
}

// Observe reports one completed path iteration to the armed observer:
// basis is the selected dictionary index (-1 for batch admissions), active
// the active-set size and residual ‖res‖₂ after the step. It is safe on a
// nil receiver and free when no observer is armed.
func (fc *FitContext) Observe(basis, active int, residual float64) {
	if fc == nil || fc.observer == nil {
		return
	}
	fc.iter++
	fc.observer(FitEvent{
		Stage:    fc.stage,
		Iter:     fc.iter,
		Basis:    basis,
		Active:   active,
		Residual: residual,
		Elapsed:  time.Since(fc.start),
		Workers:  fc.engine().Workers(),
	})
}

// Err polls the underlying context every few calls and returns its error once
// canceled or past its deadline. It is safe on a nil receiver.
func (fc *FitContext) Err() error {
	if fc == nil {
		return nil
	}
	fc.n++
	if fc.n != 1 && fc.n%checkStride != 0 {
		return nil
	}
	return fc.ctx.Err()
}

// ContextFitter is implemented by solvers whose path fit cooperatively checks
// a FitContext, so a canceled HTTP request or an expired job deadline stops
// the fit mid-path instead of after it.
type ContextFitter interface {
	PathFitter
	// FitPathCtx is FitPath with cooperative cancellation. fc may be nil.
	FitPathCtx(fc *FitContext, d basis.Design, f []float64, maxLambda int) (*Path, error)
}

// FitPathContext runs fitter's path fit under ctx. Solvers implementing
// ContextFitter are canceled cooperatively mid-fit; for foreign fitters the
// context is only checked up front.
func FitPathContext(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return fitPathWithEngine(ctx, nil, fitter, d, f, maxLambda)
}

// fitPathWithEngine is FitPathContext with an optional pre-built engine,
// letting a cross-validation lane (lockstep.go) hand the fit an engine whose
// sweeps go through the lockstep driver. A nil eng falls back to lazy
// per-fit creation.
func fitPathWithEngine(ctx context.Context, eng *Engine, fitter PathFitter, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cf, ok := fitter.(ContextFitter); ok {
		fc := NewFitContext(ctx)
		if fc != nil && eng != nil {
			fc.eng = eng
		}
		return cf.FitPathCtx(fc, d, f, maxLambda)
	}
	return fitter.FitPath(d, f, maxLambda)
}
