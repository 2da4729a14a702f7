package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/pipeline"
	"repro/internal/registry"
)

// handlePipelineSubmit validates and enqueues a netlist-in, model-out
// pipeline job. Spec-level validation (parameter kinds, measure shape,
// solver names) happens synchronously so obviously bad requests fail with
// 400; netlist-dependent validation (device names, nodes, analyses) happens
// in the worker's parse/space stages and lands the job in state failed.
func (s *Server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	var req PipelineRequest
	raw, ok := decodeBodyRaw(w, r, &req)
	if !ok {
		return
	}
	if err := registry.ValidateName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A pipeline publishes its model at the end, so the whole job runs on
	// the shard that owns the target name.
	if s.forwardOwned(w, r, "pipeline", req.Name, raw) {
		return
	}
	if req.Netlist == "" {
		writeErr(w, http.StatusBadRequest, "missing netlist")
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.TimeoutSeconds < 0 {
		writeErr(w, http.StatusBadRequest, "timeout_seconds=%g, need ≥ 0", req.TimeoutSeconds)
		return
	}
	s.submitJob(w, r, &req, "name", req.Name, "measure", req.Spec.Measure.String(),
		"mode", req.Spec.Sampling.Mode)
}

// lookupPipelineJob resolves {id} to a pipeline job; other kinds' IDs 404
// here so the resources stay distinct even though they share an ID space.
func (s *Server) lookupPipelineJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return nil, false
	}
	j, ok := s.jobs.get(id)
	if !ok || j.kind != JobKindPipeline {
		writeErr(w, http.StatusNotFound, "unknown pipeline %q", id)
		return nil, false
	}
	return j, true
}

// handlePipelineStatus reports a pipeline job's lifecycle, stage timeline
// and (when done) its result.
func (s *Server) handlePipelineStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupPipelineJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handlePipelineCancel cancels a pipeline job. A running job is
// interrupted through its context; the sampling worker pool and the solver
// inner loops both check it cooperatively, so cancellation stops simulator
// workers within one in-flight sample each and nothing is published.
func (s *Server) handlePipelineCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupPipelineJob(w, r)
	if !ok {
		return
	}
	j, _ = s.jobs.cancelJob(j.id, "canceled by client request")
	writeJSON(w, http.StatusOK, j.status())
}

// run executes a pipeline job's body: parse → space → sample → fit →
// publish, with each stage recorded on the job's timeline.
func (req *PipelineRequest) run(ctx context.Context, r *jobRun) (jobResult, error) {
	s, j, logger := r.s, r.j, r.log
	s.metrics.pipelineActive(+1)
	defer s.metrics.pipelineActive(-1)
	res, err := pipeline.Run(ctx, pipeline.Request{
		Name: req.Name, Netlist: req.Netlist, Spec: req.Spec,
	}, pipeline.Options{
		Registry:        s.registry,
		SimWorkers:      s.cfg.SimWorkers,
		FitWorkers:      s.cfg.FitParallel,
		FitObserver:     j.addEvent,
		RecoveryAttempt: j.attempt,
		Observer: func(ev pipeline.StageEvent) {
			info := PipelineStageInfo{
				Stage: ev.Stage, Seconds: ev.Seconds,
				SimSeconds: ev.SimSeconds, FitSeconds: ev.FitSeconds,
				Samples: ev.Samples, Detail: ev.Detail,
			}
			if ev.Err != nil {
				info.Error = ev.Err.Error()
				logger.Warn("pipeline stage failed", "stage", ev.Stage, "error", ev.Err,
					"seconds", ev.Seconds)
			} else {
				logger.Info("pipeline stage done", "stage", ev.Stage, "seconds", ev.Seconds,
					"sim_seconds", ev.SimSeconds, "fit_seconds", ev.FitSeconds,
					"samples", ev.Samples, "detail", ev.Detail)
				s.jobs.noteStage(j, ev.Stage)
			}
			j.addStage(info)
			s.metrics.observePipelineStage(ev.Stage, ev.Seconds, ev.Samples)
		},
	})
	if err != nil {
		return nil, err
	}
	s.metrics.observeFit(time.Duration(res.FitSeconds*float64(time.Second)), finalIterations(j), j.traceID)
	return &PipelineResult{
		Model:   modelInfo(res.Entry),
		Solver:  res.Solver,
		Lambda:  res.Lambda,
		CVError: res.CVError,
		Trials:  res.Trials,
		Samples: res.Samples, Rounds: res.Rounds, Converged: res.Converged,
		Dim: res.Dim, Metric: res.Metric,
		SimSeconds: res.SimSeconds, FitSeconds: res.FitSeconds,
	}, nil
}
