package server

import (
	"encoding/json"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// This file defines the rsmd wire protocol: the JSON request and response
// bodies of every /v1 endpoint. The rsm.Client speaks exactly these types.

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// UploadRequest publishes a pre-fitted model (POST /v1/models). Model is a
// serialized envelope as written by core.WriteEnvelope / rsmfit -out; it
// must carry a basis descriptor.
type UploadRequest struct {
	Name  string          `json:"name"`
	Model json.RawMessage `json:"model"`
}

// ModelInfo summarizes one stored model version (GET /v1/models,
// GET /v1/models/{name}, upload responses).
type ModelInfo struct {
	Name       string           `json:"name"`
	Version    int              `json:"version"`
	M          int              `json:"m"`
	NNZ        int              `json:"nnz"`
	Basis      basis.Descriptor `json:"basis"`
	Provenance core.Provenance  `json:"provenance,omitempty"`
	CreatedAt  time.Time        `json:"created_at"`
}

// ListResponse is the body of GET /v1/models.
type ListResponse struct {
	Models []ModelInfo `json:"models"`
}

// DeleteResponse acknowledges DELETE /v1/models/{name}: every stored
// version of the model was removed and a tombstone recorded, so cluster
// replicas converge to the removal instead of resurrecting it.
type DeleteResponse struct {
	Name    string `json:"name"`
	Deleted bool   `json:"deleted"`
}

// FitRequest submits an asynchronous fitting job (POST /v1/fit). The
// dataset is either inline CSV (the mcgen format: header y0..yN-1 then
// metric columns) or explicit Points plus a single response column Values.
type FitRequest struct {
	// Name registers the fitted model under this registry name.
	Name string `json:"name"`
	// Solver is omp|lar|lasso|star|cd|stomp (default omp).
	Solver string `json:"solver,omitempty"`
	// Degree of the Hermite dictionary: 1 (linear), 2 (quadratic) or
	// higher total degrees. Default 1.
	Degree int `json:"degree,omitempty"`
	// Folds is the cross-validation fold count (default 4).
	Folds int `json:"folds,omitempty"`
	// MaxLambda bounds the selected sparsity (default 50).
	MaxLambda int `json:"max_lambda,omitempty"`
	// CSV is the dataset in mcgen CSV form; Metric picks the response
	// column (default: the first metric column).
	CSV    string `json:"csv,omitempty"`
	Metric string `json:"metric,omitempty"`
	// Points/Values are the explicit-dataset alternative to CSV.
	Points [][]float64 `json:"points,omitempty"`
	Values []float64   `json:"values,omitempty"`
	// TimeoutSeconds caps this job's fit time; the effective deadline is
	// min(TimeoutSeconds, server FitTimeout). Zero means the server cap
	// alone. A job past its deadline lands in state timed_out.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// JobResponse acknowledges an accepted job of any kind (202).
type JobResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// FitResponse acknowledges an accepted fit job (202).
type FitResponse = JobResponse

// FitResult is the outcome of a completed fit job.
type FitResult struct {
	Model   ModelInfo `json:"model"`
	Lambda  int       `json:"lambda"`
	CVError float64   `json:"cv_error"`
	// FitSeconds is the wall-clock fitting time.
	FitSeconds float64 `json:"fit_seconds"`
}

// FitEventInfo is one solver telemetry event in a job's timeline: a path
// iteration (or batch admission) observed inside the fit. Stage labels the
// cross-validation phase ("cv-fold-N" or "final"); Basis is the dictionary
// index the greedy solvers chose, or -1 for batch solvers (StOMP, CD) that
// admit several bases per step.
type FitEventInfo struct {
	Stage          string  `json:"stage"`
	Iter           int     `json:"iter"`
	Basis          int     `json:"basis"`
	Active         int     `json:"active"`
	Residual       float64 `json:"residual"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ParallelWorkers is the effective goroutine count of the engine's
	// correlation sweep for this fit (1 = serial).
	ParallelWorkers int `json:"parallel_workers,omitempty"`
}

// JobStatus reports a job's lifecycle (GET /v1/jobs/{id},
// GET /v1/pipelines/{id}). RequestID is the trace ID of the submitting
// request; Events is the solver telemetry timeline (populated once the job
// starts running, capped server-side). Kind distinguishes plain fit jobs
// from pipeline jobs; pipeline jobs additionally carry the per-stage
// timeline (Stages) and, when done, the pipeline result.
type JobStatus struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind,omitempty"` // "fit" | "pipeline" | "refine"
	RequestID string     `json:"request_id,omitempty"`
	TraceID   string     `json:"trace_id,omitempty"`
	State     string     `json:"state"` // pending | running | done | failed | canceled | timed_out
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// RecoveryAttempt counts how many times this job had already been
	// started by a previous daemon process before crash recovery re-ran it
	// (0 for a job on its first life).
	RecoveryAttempt int                 `json:"recovery_attempt,omitempty"`
	Result          *FitResult          `json:"result,omitempty"`
	Events          []FitEventInfo      `json:"events,omitempty"`
	Stages          []PipelineStageInfo `json:"stages,omitempty"`
	Pipeline        *PipelineResult     `json:"pipeline,omitempty"`
	Refine          *RefineResult       `json:"refine,omitempty"`
}

// RefineRequest submits an incremental refit of a stored model
// (POST /v1/models/{name}/refine): new samples are appended to the training
// set persisted in the model's fit checkpoint and the path fit is continued
// warm instead of restarted cold. The refined model is published as a new
// registry version only when its cross-validation error improves on the
// parent's; otherwise the job completes with outcome "rejected" and the
// parent stays the served version.
type RefineRequest struct {
	// Name is populated by the server from the URL path; a body value is
	// ignored. It rides in the struct so the journaled job payload is
	// self-contained across crash recovery.
	Name string `json:"name,omitempty"`
	// CSV carries the new samples in mcgen CSV form; Points/Values are the
	// explicit alternative. The response metric is pinned by the parent fit.
	CSV    string      `json:"csv,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
	Values []float64   `json:"values,omitempty"`
	// Folds and MaxLambda default to the parent fit's settings.
	Folds     int `json:"folds,omitempty"`
	MaxLambda int `json:"max_lambda,omitempty"`
	// TimeoutSeconds caps this job's fit time like FitRequest's.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// RefineResponse acknowledges an accepted refine job (202).
type RefineResponse = JobResponse

// RefineResult is the outcome of a completed refine job. Outcome "improved"
// means a new version was published (Model describes it); "rejected" means
// the refit's CV error did not beat the parent's and nothing was published
// (Model describes the still-served parent).
type RefineResult struct {
	Outcome string    `json:"outcome"` // "improved" | "rejected"
	Model   ModelInfo `json:"model"`
	// ParentVersion/ParentCVError identify the version the refit continued
	// from and the error bar it had to beat.
	ParentVersion int     `json:"parent_version"`
	ParentCVError float64 `json:"parent_cv_error"`
	// CVError and Lambda describe the refit candidate (whether published or
	// not); Samples counts the combined training set, AppendedSamples the new
	// rows this request contributed.
	CVError         float64 `json:"cv_error"`
	Lambda          int     `json:"lambda"`
	Samples         int     `json:"samples"`
	AppendedSamples int     `json:"appended_samples"`
	// Warm reports whether the fit continued from the parent's state (warm
	// replay and/or checkpoint resume) rather than refitting cold.
	Warm bool `json:"warm"`
	// FitSeconds is the wall-clock refit time; CheckpointBytes the size of
	// the new version's persisted fit checkpoint (0 when none was stored).
	FitSeconds      float64 `json:"fit_seconds"`
	CheckpointBytes int     `json:"checkpoint_bytes,omitempty"`
}

// PipelineRequest submits an asynchronous netlist-in, model-out pipeline
// job (POST /v1/pipelines): the SPICE deck text plus the pipeline spec
// (variation, measure, sampling, fit).
type PipelineRequest struct {
	// Name registers the fitted model under this registry name.
	Name string `json:"name"`
	// Netlist is the SPICE deck text.
	Netlist string `json:"netlist"`
	// Spec configures variation, measurement, sampling and fitting.
	Spec pipeline.Spec `json:"spec"`
	// TimeoutSeconds caps this job end to end; the effective deadline is
	// min(TimeoutSeconds, server PipelineTimeout).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// PipelineResponse acknowledges an accepted pipeline job (202).
type PipelineResponse = JobResponse

// PipelineStageInfo is one completed (or failed) stage in a pipeline job's
// timeline, with the stage's cost split: wall-clock seconds, and within
// them simulation vs regression seconds — the paper's cost-table view.
type PipelineStageInfo struct {
	Stage      string  `json:"stage"`
	Seconds    float64 `json:"seconds"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	FitSeconds float64 `json:"fit_seconds,omitempty"`
	// Samples is the cumulative simulated sample count after the stage.
	Samples int    `json:"samples,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Error   string `json:"error,omitempty"`
}

// PipelineResult is the outcome of a completed pipeline job.
type PipelineResult struct {
	Model   ModelInfo `json:"model"`
	Solver  string    `json:"solver"`
	Lambda  int       `json:"lambda"`
	CVError float64   `json:"cv_error"`
	// Trials lists every solver tried in the CV selection, winner included.
	Trials []pipeline.Trial `json:"trials,omitempty"`
	// Samples, Rounds and Converged describe the sampling loop.
	Samples   int  `json:"samples"`
	Rounds    int  `json:"rounds,omitempty"`
	Converged bool `json:"converged,omitempty"`
	// Dim is the variation-space factor count; Metric names the response.
	Dim    int    `json:"dim"`
	Metric string `json:"metric"`
	// SimSeconds and FitSeconds split the job's total cost.
	SimSeconds float64 `json:"sim_seconds"`
	FitSeconds float64 `json:"fit_seconds"`
}

// PredictRequest evaluates the model at a batch of points
// (POST /v1/models/{name}/predict).
type PredictRequest struct {
	Points [][]float64 `json:"points"`
}

// PredictResponse carries the batched model values, aligned with the
// request points. Coalesced reports how many concurrent requests the
// micro-batcher evaluated together with this one (1 = evaluated alone,
// which is always the case when batching is disabled).
type PredictResponse struct {
	Model     string    `json:"model"`
	Version   int       `json:"version"`
	Values    []float64 `json:"values"`
	Coalesced int       `json:"coalesced,omitempty"`
}

// YieldRequest estimates spec-threshold parametric yield and quantiles by
// virtual Monte Carlo over the stored model (POST /v1/models/{name}/yield).
// Low/High bound the acceptance window (nil = unbounded on that side); when
// both are nil no yield is computed and only moments/quantiles are
// returned.
type YieldRequest struct {
	Low       *float64  `json:"low,omitempty"`
	High      *float64  `json:"high,omitempty"`
	N         int       `json:"n,omitempty"`    // virtual samples (default 100000)
	Seed      int64     `json:"seed,omitempty"` // RNG seed (default 1)
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// YieldResponse reports closed-form moments plus the requested Monte Carlo
// estimates. Quantiles is aligned with the request's Quantiles.
type YieldResponse struct {
	Model     string    `json:"model"`
	Version   int       `json:"version"`
	Mean      float64   `json:"mean"`
	Std       float64   `json:"std"`
	N         int       `json:"n"`
	Yield     *float64  `json:"yield,omitempty"`
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// HealthResponse is the body of GET /healthz. Journal reports the durable
// job journal: "ok", "degraded" (appends failing, async submits shed) or
// "disabled" (no -journal-dir).
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Models        int     `json:"models"`
	Journal       string  `json:"journal,omitempty"`
}

// JobEvent types: which leg of a job's live timeline an event belongs to.
const (
	// JobEventState marks a lifecycle transition (pending, running, done…).
	JobEventState = "state"
	// JobEventFit carries one solver telemetry event.
	JobEventFit = "fit"
	// JobEventStage carries one completed (or failed) pipeline stage.
	JobEventStage = "stage"
)

// JobEvent is one entry in a job's live event timeline
// (GET /v1/jobs/{id}/events, and the SSE stream with ?stream=1). Seq is a
// per-job monotonically increasing sequence number — SSE clients resume from
// it. Exactly one of State/Fit/Stage is populated, per Type.
type JobEvent struct {
	Seq   int                `json:"seq"`
	Type  string             `json:"type"` // "state" | "fit" | "stage"
	Time  time.Time          `json:"time"`
	State string             `json:"state,omitempty"`
	Error string             `json:"error,omitempty"`
	Fit   *FitEventInfo      `json:"fit,omitempty"`
	Stage *PipelineStageInfo `json:"stage,omitempty"`
}

// JobEventList is the non-streaming body of GET /v1/jobs/{id}/events: the
// retained timeline snapshot plus the job's current state.
type JobEventList struct {
	JobID  string     `json:"job_id"`
	State  string     `json:"state"`
	Events []JobEvent `json:"events"`
}

// TraceSummary is one trace in GET /v1/traces: the root span's identity and
// aggregate status, without the span tree.
type TraceSummary struct {
	TraceID         string    `json:"trace_id"`
	Name            string    `json:"name"`
	Status          string    `json:"status"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Spans           int       `json:"spans"`
	Dropped         int       `json:"dropped,omitempty"`
	Complete        bool      `json:"complete"`
}

// TraceListResponse is the body of GET /v1/traces.
type TraceListResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// SpanNode is one span plus its children in an assembled trace tree
// (GET /v1/traces/{id}, GET /v1/jobs/{id}/trace).
type SpanNode struct {
	SpanID          string         `json:"span_id"`
	ParentID        string         `json:"parent_id,omitempty"`
	Name            string         `json:"name"`
	Start           time.Time      `json:"start"`
	DurationSeconds float64        `json:"duration_seconds"`
	Status          string         `json:"status"`
	Error           string         `json:"error,omitempty"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []*SpanNode    `json:"children,omitempty"`
}

// TraceResponse is the assembled span tree of one trace.
type TraceResponse struct {
	TraceID         string    `json:"trace_id"`
	Name            string    `json:"name"`
	Status          string    `json:"status"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Complete        bool      `json:"complete"`
	Dropped         int       `json:"dropped,omitempty"`
	Spans           int       `json:"spans"`
	Depth           int       `json:"depth"`
	Root            *SpanNode `json:"root"`
}
