package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mc"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/spice"
)

// Request is one pipeline run: a netlist, a spec, and the registry name to
// publish the fitted model under.
type Request struct {
	// Name is the registry name for the published model.
	Name string
	// Netlist is the SPICE deck text.
	Netlist string
	// Spec configures variation, measurement, sampling and fitting.
	Spec Spec
}

// Options wires a run into its host.
type Options struct {
	// Registry receives the published model; required.
	Registry *registry.Registry
	// SimWorkers is the simulator worker-pool size (0 = GOMAXPROCS).
	SimWorkers int
	// Observer, when set, receives one StageEvent per completed stage (and
	// one with Err set for the failing stage). Called from the run
	// goroutine.
	Observer func(StageEvent)
	// FitObserver receives per-iteration solver telemetry from the sample
	// (adaptive) and fit stages; event stages are prefixed with the solver
	// name ("lar/cv-fold-1", "adaptive/final", …).
	FitObserver core.FitObserver
	// FitWorkers is the solver engine's correlation-sweep goroutine count
	// (0 = GOMAXPROCS), threaded to core.WithFitWorkers.
	FitWorkers int
	// RecoveryAttempt, when > 0, marks this run as a crash-recovery re-run
	// (the Nth time the host re-enqueued the job after an unclean
	// shutdown); it is recorded in the published model's provenance.
	RecoveryAttempt int
}

// StageEvent reports one stage's outcome and cost split.
type StageEvent struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Err is non-nil when the stage failed (terminal for the run).
	Err error
	// Seconds is the stage's wall-clock duration.
	Seconds float64
	// SimSeconds and FitSeconds split the stage cost between simulator
	// and regression work (sample and fit stages).
	SimSeconds float64
	FitSeconds float64
	// Samples is the cumulative simulated sample count after the stage.
	Samples int
	// Detail is a short human-readable annotation ("dim=7 m=36", "winner
	// lar cv=1.2%", …).
	Detail string
}

// Trial records one solver's cross-validation outcome in the fit stage.
type Trial struct {
	Solver  string  `json:"solver"`
	Lambda  int     `json:"lambda"`
	CVError float64 `json:"cv_error"`
	Seconds float64 `json:"seconds"`
}

// Result is the outcome of a successful run.
type Result struct {
	// Entry is the published registry entry (Name, Version, Envelope).
	Entry *registry.Entry
	// Solver, Lambda and CVError describe the CV winner.
	Solver  string
	Lambda  int
	CVError float64
	// Trials lists every solver tried, winner included.
	Trials []Trial
	// Samples is the total simulated sample count; Rounds and Converged
	// describe the adaptive loop (zero/false for plain MC).
	Samples   int
	Rounds    int
	Converged bool
	// Dim is the variation-space factor count; Metric names the response.
	Dim    int
	Metric string
	// SimSeconds and FitSeconds are the run's total cost split.
	SimSeconds float64
	FitSeconds float64
}

// Run executes the full netlist-in, model-out loop. Cancellation via ctx is
// honored inside the sampling worker pool and the solver inner loops; a
// canceled run returns ctx's error and publishes nothing.
func Run(ctx context.Context, req Request, opts Options) (*Result, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("pipeline: no registry")
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	emit := opts.Observer
	if emit == nil {
		emit = func(StageEvent) {}
	}
	ctx = core.WithFitWorkers(ctx, opts.FitWorkers)
	stageStart := time.Now()
	// Each stage runs under its own child span of the job trace (when one
	// rides on ctx); stageCtx carries it into the stage's inner calls so
	// solver trials and CV folds nest beneath the stage.
	stageCtx := ctx
	var stageSpan *trace.Span
	beginStage := func(stage string) {
		stageCtx, stageSpan = trace.Start(ctx, "stage."+stage)
	}
	fail := func(stage string, err error) (*Result, error) {
		emit(StageEvent{Stage: stage, Err: err, Seconds: time.Since(stageStart).Seconds()})
		stageSpan.EndErr(err)
		return nil, err
	}
	done := func(ev StageEvent) {
		ev.Seconds = time.Since(stageStart).Seconds()
		emit(ev)
		if ev.Samples > 0 {
			stageSpan.SetAttr("samples", ev.Samples)
		}
		if ev.Detail != "" {
			stageSpan.SetAttr("detail", ev.Detail)
		}
		stageSpan.End()
		stageStart = time.Now()
	}

	// Stage 1: parse the netlist.
	beginStage(StageParse)
	nl, err := spice.ParseNetlist(strings.NewReader(req.Netlist))
	if err != nil {
		return fail(StageParse, err)
	}
	done(StageEvent{Stage: StageParse, Detail: fmt.Sprintf("%d cards, %d analyses", len(nl.Cards), len(nl.Analyses))})

	// Stage 2: validate the spec against the deck and build the variation
	// space and the Hermite dictionary.
	beginStage(StageSpace)
	sim, err := NewSimulator(nl, &req.Spec)
	if err != nil {
		return fail(StageSpace, err)
	}
	sim.ctx = ctx
	b, err := buildBasis(req.Spec.Fit.Degree, sim.Dim())
	if err != nil {
		return fail(StageSpace, err)
	}
	res := &Result{Dim: sim.Dim(), Metric: sim.Metrics()[0]}
	done(StageEvent{Stage: StageSpace, Detail: fmt.Sprintf("dim=%d m=%d", sim.Dim(), len(b.Terms))})

	// Stage 3: sample. Both modes share one virtual sample stream, so the
	// fit stage regenerates the points from (seed, K) instead of storing
	// them.
	beginStage(StageSample)
	sp := req.Spec.Sampling
	var f []float64
	switch sp.Mode {
	case ModeAdaptive:
		fitter, err := core.SolverByName(req.Spec.Fit.Solvers[0])
		if err != nil {
			return fail(StageSample, err)
		}
		// Every round is one cross-validation, whose fold and final spans
		// stay open until the SpanSet closes; Logf runs right after each
		// round's CV, so closing there gives each round its own spans.
		adaptiveSpans := trace.NewSpanSet(stageCtx)
		ar, err := exp.AdaptiveFitCtx(observed(stageCtx, opts, "adaptive", adaptiveSpans), sim, b, fitter, exp.AdaptiveConfig{
			InitialK: sp.Samples, MaxK: sp.MaxSamples,
			TargetErr: sp.TargetErr, RelImprove: sp.RelImprove,
			Folds: req.Spec.Fit.Folds, MaxLambda: req.Spec.Fit.MaxLambda,
			Seed: sp.Seed, Workers: opts.SimWorkers,
			Logf: func(string, ...any) { adaptiveSpans.Close() },
		})
		adaptiveSpans.Close()
		if err != nil {
			return fail(StageSample, err)
		}
		f = ar.Responses
		res.Samples, res.Rounds, res.Converged = ar.K, len(ar.Rounds), ar.Converged
		res.SimSeconds += ar.SimTime.Seconds()
		res.FitSeconds += ar.FitTime.Seconds()
		// The adaptive loop's last round is already a full CV of the first
		// solver on the final sample set; reuse it as that solver's trial.
		last := ar.Rounds[len(ar.Rounds)-1]
		res.Trials = append(res.Trials, Trial{
			Solver: fitter.Name(), Lambda: last.Lambda, CVError: last.CVError,
			Seconds: ar.FitTime.Seconds(),
		})
		res.Solver, res.Lambda, res.CVError = fitter.Name(), last.Lambda, last.CVError
		done(StageEvent{
			Stage: StageSample, SimSeconds: ar.SimTime.Seconds(), FitSeconds: ar.FitTime.Seconds(),
			Samples: ar.K,
			Detail:  fmt.Sprintf("adaptive %d rounds, K=%d, converged=%t", len(ar.Rounds), ar.K, ar.Converged),
		})
	default: // ModeMC
		vals, simDur, err := mc.SampleVirtualRangeCtx(stageCtx, sim, 0, sp.Samples, sp.Seed, mc.Options{Workers: opts.SimWorkers})
		if err != nil {
			return fail(StageSample, err)
		}
		f = make([]float64, len(vals))
		for i, v := range vals {
			f[i] = v[0]
		}
		res.Samples = sp.Samples
		res.SimSeconds += simDur.Seconds()
		done(StageEvent{
			Stage: StageSample, SimSeconds: simDur.Seconds(), Samples: sp.Samples,
			Detail: fmt.Sprintf("mc K=%d", sp.Samples),
		})
	}

	// Stage 4: cross-validated solver selection over the shared design.
	beginStage(StageFit)
	// cvTrial runs one solver's cross-validation under its own child span
	// of the fit stage, with each CV fold and the final refit as
	// grandchildren — the deepest level of the job trace.
	cvTrial := func(fitter core.PathFitter, design basis.Design) (*core.CVResult, error) {
		trialCtx, trialSpan := trace.Start(stageCtx, "solver."+fitter.Name())
		foldSpans := trace.NewSpanSet(trialCtx)
		cv, err := core.CrossValidateCtx(observed(trialCtx, opts, fitter.Name(), foldSpans), fitter, design, f, req.Spec.Fit.Folds, req.Spec.Fit.MaxLambda)
		foldSpans.Close()
		if err == nil {
			trialSpan.SetAttr("lambda", cv.BestLambda)
			trialSpan.SetAttr("cv_error", cv.ErrCurve[cv.BestLambda-1])
		}
		trialSpan.EndErr(err)
		return cv, err
	}
	design := core.Subset(basis.NewGeneratedDesign(b, res.Samples, sp.Seed), seq(res.Samples))
	var winner *core.Model
	for _, name := range req.Spec.Fit.Solvers {
		if sp.Mode == ModeAdaptive && name == req.Spec.Fit.Solvers[0] {
			continue // already cross-validated by the adaptive loop
		}
		fitter, err := core.SolverByName(name)
		if err != nil {
			return fail(StageFit, err)
		}
		t0 := time.Now()
		cv, err := cvTrial(fitter, design)
		if err != nil {
			return fail(StageFit, fmt.Errorf("solver %s: %w", name, err))
		}
		sec := time.Since(t0).Seconds()
		res.FitSeconds += sec
		e := cv.ErrCurve[cv.BestLambda-1]
		res.Trials = append(res.Trials, Trial{Solver: fitter.Name(), Lambda: cv.BestLambda, CVError: e, Seconds: sec})
		if res.Solver == "" || e < res.CVError {
			res.Solver, res.Lambda, res.CVError = fitter.Name(), cv.BestLambda, e
			winner = cv.Model
		}
	}
	if winner == nil {
		// The adaptive first solver won; refit it on all samples to get the
		// model (the adaptive result's model is already exactly this, but
		// re-deriving it here keeps the winner path uniform and cheap).
		fitter, _ := core.SolverByName(res.Solver)
		cv, err := cvTrial(fitter, design)
		if err != nil {
			return fail(StageFit, err)
		}
		winner = cv.Model
		res.Lambda, res.CVError = cv.BestLambda, cv.ErrCurve[cv.BestLambda-1]
	}
	done(StageEvent{
		Stage: StageFit, FitSeconds: res.FitSeconds, Samples: res.Samples,
		Detail: fmt.Sprintf("winner %s λ=%d cv=%.3g (%d trials)", res.Solver, res.Lambda, res.CVError, len(res.Trials)),
	})

	// Stage 5: publish with pipeline provenance.
	beginStage(StagePublish)
	sum := sha256.Sum256([]byte(req.Netlist))
	trialErrs := make(map[string]float64, len(res.Trials))
	for _, t := range res.Trials {
		trialErrs[t.Solver] = t.CVError
	}
	env := &core.Envelope{
		Model: winner,
		Basis: b.Desc,
		Prov: core.Provenance{
			Solver: res.Solver, Lambda: res.Lambda, CVError: res.CVError,
			Folds: req.Spec.Fit.Folds, Samples: res.Samples, Metric: res.Metric,
			Source: "pipeline",
			Pipeline: &core.PipelineProvenance{
				NetlistSHA256:   hex.EncodeToString(sum[:]),
				Measure:         req.Spec.Measure.String(),
				Mode:            sp.Mode,
				Rounds:          res.Rounds,
				Converged:       res.Converged,
				SimSeconds:      res.SimSeconds,
				FitSeconds:      res.FitSeconds,
				Trials:          trialErrs,
				RecoveryAttempt: opts.RecoveryAttempt,
			},
		},
	}
	entry, err := opts.Registry.Put(req.Name, env)
	if err != nil {
		return fail(StagePublish, err)
	}
	res.Entry = entry
	done(StageEvent{Stage: StagePublish, Detail: fmt.Sprintf("%s@v%d nnz=%d", entry.Name, entry.Version, winner.NNZ())})
	return res, nil
}

// observed threads the run's fit observer into a stage context, prefixing
// event stages with the solver label so one job timeline can interleave
// several solvers unambiguously. The SpanSet additionally turns the raw
// (unprefixed) stage labels into child spans of ctx's span — one per CV
// fold, one for the final refit — with the last iteration's counters as
// attrs.
func observed(ctx context.Context, opts Options, label string, spans *trace.SpanSet) context.Context {
	obs := opts.FitObserver
	if obs == nil && spans == nil {
		return ctx
	}
	return core.WithFitObserver(ctx, func(ev core.FitEvent) {
		stage := ev.Stage
		if stage == "" {
			stage = label
		}
		spans.Observe(stage, trace.Int("iter", ev.Iter),
			trace.Int("active", ev.Active), trace.Float("residual", ev.Residual))
		if obs == nil {
			return
		}
		if ev.Stage == "" {
			ev.Stage = label
		} else {
			ev.Stage = label + "/" + ev.Stage
		}
		obs(ev)
	})
}

// seq returns [0, 1, …, n-1].
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
