package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
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
	s.submitJob(w, r, &req, "name", e.Name, "parent_version", e.Version)
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

// run executes a refine job's body: load the parent version and its
// checkpoint, splice the new samples onto the checkpointed training set
// (refit.append), continue the cross-validated fit warm where the solver
// supports it (refit.resume), and publish a new registry version only when
// the refit's CV error strictly improves on the parent's.
func (req *RefineRequest) run(ctx context.Context, r *jobRun) (jobResult, error) {
	s, logger, refineSpan := r.s, r.log, r.span
	// The parent is re-resolved in the worker (not captured at submit): a
	// journal-replayed refine continues from whatever the latest version is
	// when it finally runs.
	entry, ok := s.registry.Get(req.Name)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", req.Name)
	}
	parentCK, ok := s.registry.Checkpoint(entry.Name, entry.Version)
	if !ok {
		return nil, fmt.Errorf("model %s@v%d has no fit checkpoint to continue from; submit a fresh fit instead", entry.Name, entry.Version)
	}

	newPts, newVals, _, err := fitDataset(&FitRequest{
		CSV: req.CSV, Points: req.Points, Values: req.Values, Metric: parentCK.Metric,
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if dim := len(parentCK.Points[0]); len(newPts[0]) != dim {
		return nil, fmt.Errorf("new samples have dimension %d, parent fit used %d", len(newPts[0]), dim)
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
		return nil, fmt.Errorf("rebuild basis: %w", err)
	}
	fitterName := parentCK.Fitter
	if fitterName == "" {
		fitterName = parentCK.Solver
	}
	fitter, err := core.SolverByName(fitterName)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("refit: %w", err)
	}
	s.metrics.observeRefineFit(fitDur, warm)
	s.metrics.observeFit(fitDur, finalIterations(r.j), r.j.traceID)

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
		return result, nil
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
		return nil, err
	}
	s.metrics.countRefit(RefineImproved)
	refineSpan.SetAttr("outcome", RefineImproved)
	result.Outcome = RefineImproved
	result.Model = modelInfo(newEntry)
	result.CheckpointBytes = s.persistCheckpoint(logger, newEntry, plan.CK,
		fitterName, folds, maxLambda, parentCK.Metric, points, values)
	return result, nil
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
