package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs/trace"
)

// Job kinds. Fit, pipeline and refine jobs share one queue, journal,
// worker scaffolding (runJob) and terminal path; this file holds the few
// things that differ between them.
const (
	JobKindFit      = "fit"
	JobKindPipeline = "pipeline"
	JobKindRefine   = "refine"
)

// jobRequest is a job kind's request: *FitRequest, *PipelineRequest or
// *RefineRequest. Its JSON encoding is the journaled submit payload.
type jobRequest interface {
	kind() string
	// limits reports the kind's server-wide deadline cap and the request's
	// own timeout_seconds (0 = none); effectiveDeadline combines them.
	limits(cfg *Config) (capDur time.Duration, timeoutSeconds float64)
	// appendStartAttrs appends the kind's attributes for the "job started"
	// log line to attrs.
	appendStartAttrs(attrs []any) []any
	// workSpan names the span the kind's work runs under, opened below the
	// job span before the fault point ("" = none), and its attrs.
	workSpan() (name string, attrs []trace.Attr)
	// run is the kind's body: it returns the result, or the error that
	// runJob classifies into canceled, timed_out or failed.
	run(ctx context.Context, r *jobRun) (jobResult, error)
}

// jobResult is a done job's result; report places it in its kind's
// JobStatus field.
type jobResult interface {
	report(st *JobStatus)
}

// jobKind is one row of the kind table: what replay and the metrics need
// to know about a kind by its journaled name.
type jobKind struct {
	name string
	// decode rebuilds a journaled submit payload as the kind's request.
	decode func(payload []byte) (jobRequest, error)
	// counters picks the kind's submit and terminal-state tallies.
	counters func(m *metrics) *jobCounters
}

// jobKinds is the kind table. A journaled job whose kind is missing here is
// quarantined at boot, never run.
var jobKinds = [...]jobKind{
	{
		name: JobKindFit,
		decode: func(p []byte) (jobRequest, error) {
			req := new(FitRequest)
			return req, json.Unmarshal(p, req)
		},
		counters: func(m *metrics) *jobCounters { return &m.jobs },
	},
	{
		name: JobKindPipeline,
		decode: func(p []byte) (jobRequest, error) {
			req := new(PipelineRequest)
			return req, json.Unmarshal(p, req)
		},
		counters: func(m *metrics) *jobCounters { return &m.pipelines },
	},
	{
		name: JobKindRefine,
		decode: func(p []byte) (jobRequest, error) {
			req := new(RefineRequest)
			if err := json.Unmarshal(p, req); err != nil {
				return nil, err
			}
			if req.Name == "" {
				return nil, fmt.Errorf("refine payload names no model")
			}
			return req, nil
		},
		counters: func(m *metrics) *jobCounters { return &m.refines },
	},
}

// kindByName looks a kind up in the table by its journaled name.
func kindByName(name string) (jobKind, bool) {
	for _, k := range jobKinds {
		if k.name == name {
			return k, true
		}
	}
	return jobKind{}, false
}

// effectiveDeadline resolves a job's deadline: the kind's server-wide cap,
// tightened by the request's own timeout_seconds when smaller.
func effectiveDeadline(capDur time.Duration, timeoutSeconds float64) time.Duration {
	if timeoutSeconds > 0 {
		if r := time.Duration(timeoutSeconds * float64(time.Second)); r < capDur {
			return r
		}
	}
	return capDur
}

func (req *FitRequest) kind() string { return JobKindFit }

func (req *FitRequest) limits(cfg *Config) (time.Duration, float64) {
	return cfg.FitTimeout, req.TimeoutSeconds
}

func (req *FitRequest) appendStartAttrs(attrs []any) []any {
	return append(attrs, "solver", req.Solver, "degree", req.Degree, "folds", req.Folds, "max_lambda", req.MaxLambda)
}

func (req *FitRequest) workSpan() (string, []trace.Attr) {
	return "fit", []trace.Attr{trace.String("solver", req.Solver), trace.Int("folds", req.Folds),
		trace.Int("max_lambda", req.MaxLambda)}
}

func (res *FitResult) report(st *JobStatus) { st.Result = res }

func (req *PipelineRequest) kind() string { return JobKindPipeline }

func (req *PipelineRequest) limits(cfg *Config) (time.Duration, float64) {
	return cfg.PipelineTimeout, req.TimeoutSeconds
}

func (req *PipelineRequest) appendStartAttrs(attrs []any) []any {
	return append(attrs, "name", req.Name, "measure", req.Spec.Measure.String(), "mode", req.Spec.Sampling.Mode)
}

// workSpan is none: the pipeline stages and solver trials open their own
// spans under the job span.
func (req *PipelineRequest) workSpan() (string, []trace.Attr) { return "", nil }

func (res *PipelineResult) report(st *JobStatus) { st.Pipeline = res }

func (req *RefineRequest) kind() string { return JobKindRefine }

// limits caps a refine like the fit it continues.
func (req *RefineRequest) limits(cfg *Config) (time.Duration, float64) {
	return cfg.FitTimeout, req.TimeoutSeconds
}

func (req *RefineRequest) appendStartAttrs(attrs []any) []any {
	return append(attrs, "model", req.Name)
}

func (req *RefineRequest) workSpan() (string, []trace.Attr) {
	return "refine", []trace.Attr{trace.String("model", req.Name)}
}

func (res *RefineResult) report(st *JobStatus) { st.Refine = res }
