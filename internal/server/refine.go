package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/registry"
)

// Refine outcomes: whether the refit beat the parent's cross-validation
// error and was published as a new registry version.
const (
	RefineImproved = "improved"
	RefineRejected = "rejected"
)

// handleRefine validates and enqueues an incremental-refit job
// (POST /v1/models/{name}/refine). The model must exist and its latest
// version must carry a persisted fit checkpoint — the solver state plus the
// training set the refine appends to. Everything dataset-dependent happens
// in the worker.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	// Refine mutates the model, so it always runs on the owning shard —
	// the body streams through before it is decoded here.
	if s.forwardOwned(w, r, "refine", r.PathValue("name"), nil) {
		return
	}
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	var req RefineRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The URL path names the model; a body name is overwritten so the
	// journaled payload can never disagree with the submitted route.
	req.Name = e.Name
	if req.CSV == "" && len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no new samples: provide csv or points+values")
		return
	}
	if req.CSV != "" && req.Points != nil {
		writeErr(w, http.StatusBadRequest, "csv and points are mutually exclusive")
		return
	}
	if req.Folds != 0 && req.Folds < 2 {
		writeErr(w, http.StatusBadRequest, "folds=%d, need ≥ 2 (0 inherits the parent fit's)", req.Folds)
		return
	}
	if req.MaxLambda < 0 {
		writeErr(w, http.StatusBadRequest, "max_lambda=%d, need ≥ 0 (0 inherits the parent fit's)", req.MaxLambda)
		return
	}
	if req.TimeoutSeconds < 0 {
		writeErr(w, http.StatusBadRequest, "timeout_seconds=%g, need ≥ 0", req.TimeoutSeconds)
		return
	}
	// Fast feedback on the common operator error: models that were uploaded
	// pre-fitted or built by a pipeline have no checkpoint to continue from.
	if _, ok := s.registry.Checkpoint(e.Name, e.Version); !ok {
		writeErr(w, http.StatusConflict,
			"model %s@v%d has no fit checkpoint to continue from (uploaded and pipeline-built models cannot be refined); submit a fresh fit", e.Name, e.Version)
		return
	}
	idemKey, ok := idempotencyKey(w, r)
	if !ok {
		return
	}
	j, existing, err := s.jobs.submitRefine(r.Context(), req, obs.RequestID(r.Context()), idemKey)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if existing {
		if j.kind != JobKindRefine {
			writeErr(w, http.StatusConflict,
				"idempotency key %q was used by %s job %s", idemKey, j.kind, j.id)
			return
		}
		w.Header().Set(idemReplayedHeader, "true")
		writeJSON(w, http.StatusAccepted, RefineResponse{JobID: j.id, State: j.status().State})
		return
	}
	s.metrics.countRefineSubmitted()
	obs.Log(r.Context()).Info("refine job submitted",
		"job_id", j.id, "name", e.Name, "parent_version", e.Version, "queue_depth", s.jobs.depth())
	writeJSON(w, http.StatusAccepted, RefineResponse{JobID: j.id, State: JobPending})
}

// refineDeadline resolves the effective refit deadline: the server-wide fit
// cap, tightened by the request's own timeout when smaller.
func (s *Server) refineDeadline(req *RefineRequest) time.Duration {
	d := s.cfg.FitTimeout
	if req.TimeoutSeconds > 0 {
		if r := time.Duration(req.TimeoutSeconds * float64(time.Second)); r < d {
			d = r
		}
	}
	return d
}

// warmContinuable reports whether the checkpointed engine state supports
// warm continuation on grown data: Gram-maintaining solvers replay the
// parent support sweep-free inside CV folds and fold appended rows into the
// factor as rank-one updates on the final refit. The others (LAR normalizes
// per-fold, STAR keeps no factor, CD's grid resume needs identical data)
// refit cold on the combined set — correctness over speed.
func warmContinuable(engineSolver string) bool {
	switch engineSolver {
	case "OMP", "StOMP":
		return true
	}
	return false
}

// runRefine executes one incremental-refit job end to end: load the parent
// version and its checkpoint, splice the new samples onto the checkpointed
// training set (refit.append), continue the cross-validated fit warm where
// the solver supports it (refit.resume), and publish a new registry version
// only when the refit's CV error strictly improves on the parent's. Like
// runFit it must never let a failure escape the worker.
func (s *Server) runRefine(j *job) {
	if !j.begin() {
		return // canceled while queued
	}
	s.jobs.noteStarted(j)
	queueWait := j.started.Sub(j.submitted)
	s.metrics.observeQueueWait(queueWait)
	req := j.refineReq
	logger := s.log.With("job_id", j.id, "request_id", j.requestID)
	logger.Info("refine job started",
		"model", req.Name, "recovery_attempt", j.attempt,
		"queue_wait_ms", float64(queueWait.Microseconds())/1000.0)
	ctx, cancelCtx := context.WithTimeout(j.ctx, s.refineDeadline(req))
	defer cancelCtx()
	// Re-attach the job span: j.ctx is rooted in Background (the job
	// outlives its submitting request).
	ctx = trace.ContextWithSpan(ctx, j.span)
	_, qwSpan := trace.Start(ctx, "queue.wait", trace.WithStart(j.submitted))
	qwSpan.End()
	ctx, refineSpan := trace.Start(ctx, "refine",
		trace.WithAttrs(trace.String("model", req.Name)))
	spans := trace.NewSpanSet(ctx)
	ctx = core.WithFitObserver(ctx, func(ev core.FitEvent) {
		j.addEvent(ev)
		spans.Observe(ev.Stage, trace.Int("iter", ev.Iter),
			trace.Int("active", ev.Active), trace.Float("residual", ev.Residual))
	})
	ctx = core.WithFitWorkers(ctx, s.cfg.FitParallel)

	finish := func(state, errMsg string, result *RefineResult) {
		spans.Close()
		if state != JobDone {
			refineSpan.SetStatus(trace.StatusError, errMsg)
		}
		refineSpan.End()
		if !j.finishRefine(state, errMsg, result) {
			return
		}
		dur := j.finished.Sub(j.started)
		if state == JobDone {
			logger.Info("refine job done", "outcome", result.Outcome,
				"duration_ms", float64(dur.Microseconds())/1000.0)
		} else {
			logger.Warn("refine job ended", "state", state, "error", errMsg,
				"duration_ms", float64(dur.Microseconds())/1000.0)
		}
	}
	fail := func(err error) {
		switch {
		case errors.Is(err, context.Canceled):
			finish(JobCanceled, err.Error(), nil)
		case errors.Is(err, context.DeadlineExceeded):
			finish(JobTimedOut, fmt.Sprintf("deadline %s exceeded: %v", s.refineDeadline(req), err), nil)
		default:
			finish(JobFailed, err.Error(), nil)
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.countPanic()
			logger.Error("refine panicked", "panic", rec, "stack", string(debug.Stack()))
			finish(JobFailed, fmt.Sprintf("internal: refine panicked: %v (incident logged)", rec), nil)
		}
	}()

	// Chaos hook: injected panics exercise the recovery above, injected
	// delays stall the job against its deadline — and a crash here leaves a
	// non-terminal journal trail for replay to re-run.
	if err := faultinject.FireCtx(ctx, "server.refine"); err != nil {
		fail(err)
		return
	}
	if err := ctx.Err(); err != nil {
		fail(err)
		return
	}

	// The parent is re-resolved in the worker (not captured at submit): a
	// journal-replayed refine continues from whatever the latest version is
	// when it finally runs.
	entry, ok := s.registry.Get(req.Name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", req.Name))
		return
	}
	parentCK, ok := s.registry.Checkpoint(entry.Name, entry.Version)
	if !ok {
		fail(fmt.Errorf("model %s@v%d has no fit checkpoint to continue from; submit a fresh fit instead", entry.Name, entry.Version))
		return
	}

	newPts, newVals, _, err := fitDataset(&FitRequest{
		CSV: req.CSV, Points: req.Points, Values: req.Values, Metric: parentCK.Metric,
	})
	if err != nil {
		fail(fmt.Errorf("dataset: %w", err))
		return
	}
	if dim := len(parentCK.Points[0]); len(newPts[0]) != dim {
		fail(fmt.Errorf("new samples have dimension %d, parent fit used %d", len(newPts[0]), dim))
		return
	}

	// refit.append: splice the new rows onto the checkpointed training set.
	_, appendSpan := trace.Start(ctx, "refit.append", trace.WithAttrs(
		trace.Int("parent_samples", len(parentCK.Points)), trace.Int("appended", len(newPts))))
	points := make([][]float64, 0, len(parentCK.Points)+len(newPts))
	points = append(points, parentCK.Points...)
	points = append(points, newPts...)
	values := make([]float64, 0, len(parentCK.Values)+len(newVals))
	values = append(values, parentCK.Values...)
	values = append(values, newVals...)
	appendSpan.End()

	b, err := entry.Basis()
	if err != nil {
		fail(fmt.Errorf("rebuild basis: %w", err))
		return
	}
	fitterName := parentCK.Fitter
	if fitterName == "" {
		fitterName = parentCK.Solver
	}
	fitter, err := core.SolverByName(fitterName)
	if err != nil {
		fail(err)
		return
	}
	folds := req.Folds
	if folds == 0 {
		folds = parentCK.Folds
	}
	if folds < 2 {
		folds = 4
	}
	maxLambda := req.MaxLambda
	if maxLambda == 0 {
		maxLambda = parentCK.MaxLambda
	}

	warm := warmContinuable(parentCK.State.Solver)
	fitCtx := ctx
	if warm {
		// CV folds replay the parent support without correlation sweeps; the
		// final refit exact-resumes the checkpoint, folding the appended rows
		// into the Gram factor as rank-one updates (CrossValidateCtx scrubs
		// the resume state from fold contexts, where the rows differ). A
		// request that shrinks the sparsity budget below the checkpointed
		// support keeps the warm replay but skips the exact resume.
		fitCtx = core.WithWarmStart(fitCtx, entry.Model())
		if maxLambda >= len(parentCK.State.Support) {
			fitCtx = core.WithResumeCheckpoint(fitCtx, parentCK.State)
		}
	}
	// Capture the continued fit's natural-end state so the refined version
	// gets a checkpoint of its own and stays refinable.
	plan := &core.CheckpointPlan{}
	fitCtx = core.WithCheckpointPlan(fitCtx, plan)

	rctx, resumeSpan := trace.Start(fitCtx, "refit.resume", trace.WithAttrs(
		trace.Bool("warm", warm), trace.Int("parent_version", entry.Version),
		trace.String("solver", parentCK.Solver)))
	start := time.Now()
	cv, err := core.CrossValidateCtx(rctx, fitter, basis.AutoColMajor(b, points), values, folds, maxLambda)
	fitDur := time.Since(start)
	resumeSpan.EndErr(err)
	if err != nil {
		fail(fmt.Errorf("refit: %w", err))
		return
	}
	s.metrics.observeRefineFit(fitDur, warm)
	s.metrics.observeFit(fitDur, finalIterations(j), j.traceID)

	parentErr := entry.Envelope.Prov.CVError
	newErr := cv.ErrCurve[cv.BestLambda-1]
	refineSpan.SetAttr("cv_error", newErr)
	refineSpan.SetAttr("parent_cv_error", parentErr)
	result := &RefineResult{
		ParentVersion: entry.Version, ParentCVError: parentErr,
		CVError: newErr, Lambda: cv.BestLambda,
		Samples: len(points), AppendedSamples: len(newPts),
		Warm: warm, FitSeconds: fitDur.Seconds(),
	}

	// Publish gate: a refined version must strictly improve the parent's
	// cross-validation error. Written so a NaN refit error also rejects.
	if !(newErr < parentErr) {
		s.metrics.countRefit(RefineRejected)
		refineSpan.SetAttr("outcome", RefineRejected)
		result.Outcome = RefineRejected
		result.Model = modelInfo(entry)
		logger.Info("refine rejected: no CV improvement", "model", entry.Name,
			"parent_version", entry.Version, "parent_cv_error", parentErr, "cv_error", newErr)
		finish(JobDone, "", result)
		return
	}

	env := &core.Envelope{
		Model: cv.Model,
		Basis: entry.Envelope.Basis,
		Prov: core.Provenance{
			Solver:  fitter.Name(),
			Lambda:  cv.BestLambda,
			CVError: newErr,
			Folds:   folds,
			Samples: len(points),
			Metric:  parentCK.Metric,
			Refine: &core.RefineProvenance{
				ParentVersion: entry.Version, ParentCVError: parentErr,
				AppendedSamples: len(newPts), Warm: warm,
			},
		},
	}
	newEntry, err := s.registry.Put(entry.Name, env)
	if err != nil {
		fail(err)
		return
	}
	s.metrics.countRefit(RefineImproved)
	refineSpan.SetAttr("outcome", RefineImproved)
	result.Outcome = RefineImproved
	result.Model = modelInfo(newEntry)
	result.CheckpointBytes = s.persistCheckpoint(logger, newEntry, plan.CK,
		fitterName, folds, maxLambda, parentCK.Metric, points, values)
	finish(JobDone, "", result)
}

// persistCheckpoint stores the captured engine state beside a just-published
// model version so POST /v1/models/{name}/refine can continue the fit later.
// Failure is deliberately non-fatal — the model itself published; a missing
// checkpoint only means the next refine fits cold — but it is logged and the
// checkpoint size gauge stays unset. Returns the persisted size in bytes.
func (s *Server) persistCheckpoint(logger *slog.Logger, entry *registry.Entry, state *core.FitCheckpoint,
	fitterName string, folds, maxLambda int, metric string, points [][]float64, values []float64) int {
	if state == nil {
		return 0
	}
	ck := &registry.Checkpoint{
		Version:      registry.CheckpointFormatVersion,
		Name:         entry.Name,
		ModelVersion: entry.Version,
		Solver:       state.Solver,
		Fitter:       fitterName,
		Folds:        folds,
		MaxLambda:    maxLambda,
		Metric:       metric,
		Points:       points,
		Values:       values,
		State:        state,
		CreatedAt:    time.Now().UTC(),
	}
	if err := s.registry.PutCheckpoint(ck); err != nil {
		logger.Warn("fit checkpoint not persisted (the next refine of this model fits cold)",
			"model", entry.Name, "version", entry.Version, "error", err)
		return 0
	}
	n := s.registry.CheckpointBytes(entry.Name, entry.Version)
	s.metrics.setCheckpointBytes(entry.Name, n)
	return n
}
