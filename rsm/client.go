package rsm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// Serving-layer types, re-exported so callers never import internals.
type (
	// Envelope is the versioned serialized model: coefficients + basis
	// descriptor + fit provenance. It is what rsmd stores and serves.
	Envelope = core.Envelope
	// Provenance records how a stored model was fit.
	Provenance = core.Provenance
	// FitRequest submits an asynchronous server-side fit.
	FitRequest = server.FitRequest
	// FitResult is a completed fit job's outcome.
	FitResult = server.FitResult
	// RefineRequest submits new samples to continue a stored model's fit
	// (incremental refit). Name is taken from the Refine call's argument.
	RefineRequest = server.RefineRequest
	// RefineResult is a completed refine job's outcome: whether the refit
	// improved on the parent and was published.
	RefineResult = server.RefineResult
	// RefineProvenance links a refined model version to its parent.
	RefineProvenance = core.RefineProvenance
	// JobStatus reports an async fit job's lifecycle.
	JobStatus = server.JobStatus
	// ModelInfo summarizes a stored model version.
	ModelInfo = server.ModelInfo
	// DeleteResponse acknowledges a model delete.
	DeleteResponse = server.DeleteResponse
	// PredictResponse carries batched model values plus the version that
	// produced them and the micro-batch coalescing count.
	PredictResponse = server.PredictResponse
	// YieldRequest configures a server-side yield/quantile query.
	YieldRequest = server.YieldRequest
	// YieldResponse reports yield, moments and quantiles.
	YieldResponse = server.YieldResponse
	// PipelineRequest submits a netlist-in, model-out pipeline job.
	PipelineRequest = server.PipelineRequest
	// PipelineSpec configures a pipeline's variation space, measurement,
	// sampling campaign and fit.
	PipelineSpec = pipeline.Spec
	// PipelineResult is a completed pipeline job's outcome.
	PipelineResult = server.PipelineResult
	// PipelineStageInfo is one stage in a pipeline job's timeline with its
	// cost split (wall-clock, simulation and regression seconds).
	PipelineStageInfo = server.PipelineStageInfo
	// JobEvent is one entry in a job's live event timeline (state
	// transitions, solver telemetry, pipeline stages), as streamed by
	// WatchJob.
	JobEvent = server.JobEvent
	// TraceResponse is one trace's assembled span tree.
	TraceResponse = server.TraceResponse
	// TraceSummary is one trace's header in a trace listing.
	TraceSummary = server.TraceSummary
	// SpanNode is one span plus its children in a trace tree.
	SpanNode = server.SpanNode
)

// JobEvent types, re-exported for WatchJob callbacks.
const (
	JobEventState = server.JobEventState
	JobEventFit   = server.JobEventFit
	JobEventStage = server.JobEventStage
)

// Refine outcomes, re-exported for RefineResult.Outcome comparisons.
const (
	RefineImproved = server.RefineImproved
	RefineRejected = server.RefineRejected
)

// Job lifecycle states, re-exported so WatchJob callbacks and JobStatus
// consumers can compare without importing internals.
const (
	JobPending  = server.JobPending
	JobRunning  = server.JobRunning
	JobDone     = server.JobDone
	JobFailed   = server.JobFailed
	JobCanceled = server.JobCanceled
	JobTimedOut = server.JobTimedOut
)

// RetryPolicy tunes the client's retry loop for idempotent requests. The
// zero value selects the defaults noted per field; set MaxAttempts to 1 to
// disable retries entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 3).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff, including server-directed
	// Retry-After waits (default 1s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// backoff computes the pause before the given retry (attempt ≥ 1):
// exponential in the attempt number with equal jitter, stretched to any
// server-directed Retry-After, and capped at MaxDelay.
func (p RetryPolicy) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// Client is a thin HTTP client for an rsmd daemon. Idempotent requests
// (everything except UploadModel and SubmitFit) are retried per Retry on
// transport errors and on 429/502/503/504 responses — the statuses rsmd
// uses for load shedding and drain — honoring Retry-After headers and the
// request context's deadline.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry tunes retries for idempotent requests (zero value = defaults).
	Retry RetryPolicy
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// retryStatus reports whether a response status signals a transient
// condition worth retrying.
func retryStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one JSON exchange. A non-2xx status is surfaced as an error
// carrying the server's error body. Idempotent exchanges are retried with
// backoff; non-idempotent ones (uploads) get exactly one attempt, since a
// transport error leaves it unknown whether the server acted. Job submits
// become idempotent — and therefore retryable — by carrying a generated
// Idempotency-Key (see doWith): a retry that reaches a daemon which already
// accepted the job gets the original job ID back, never a duplicate job.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	return c.doWith(ctx, method, path, "", in, out, idempotent)
}

// doWith is do with an optional Idempotency-Key attached to every attempt.
func (c *Client) doWith(ctx context.Context, method, path, idemKey string, in, out any, idempotent bool) error {
	return c.doHeaders(ctx, method, path, idemKey, nil, in, out, idempotent)
}

// doHeaders is doWith with extra request headers attached to every attempt
// (the cluster read-your-writes floor rides here).
func (c *Client) doHeaders(ctx context.Context, method, path, idemKey string, hdr http.Header, in, out any, idempotent bool) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("rsm: encode %s %s: %w", method, path, err)
		}
	}
	pol := c.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if !idempotent {
		attempts = 1
	}
	// One trace ID covers every attempt of the exchange, so the daemon's
	// logs show the retries of a single logical call under one request_id.
	requestID := obs.NewRequestID()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(pol.backoff(attempt, lastRetryAfter(lastErr)))
			select {
			case <-ctx.Done():
				t.Stop()
				return lastErr
			case <-t.C:
			}
		}
		status, err := c.doOnce(ctx, method, path, requestID, idemKey, hdr, data, in != nil, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
		if status != 0 && !retryStatus(status) {
			return lastErr // definitive server answer; retrying can't help
		}
	}
	return lastErr
}

// httpError is a non-2xx response, keeping the status, any Retry-After
// hint, and the exchange's trace ID available to the retry loop and to
// callers via RequestID.
type httpError struct {
	msg        string
	status     int
	retryAfter time.Duration
	requestID  string
}

func (e *httpError) Error() string { return e.msg }

// RequestID extracts the X-Request-Id of the failed exchange from an error
// returned by a Client method, or "" when the error carries none. Quote it
// when correlating a client-side failure with the daemon's logs.
func RequestID(err error) string {
	if he, ok := err.(*httpError); ok {
		return he.requestID
	}
	return ""
}

// StatusCode extracts the HTTP status of the failed exchange from an error
// returned by a Client method, or 0 when the error carries none (transport
// failure, context cancellation). Load tools use it to separate definitive
// 4xx rejections from serving failures.
func StatusCode(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.status
	}
	return 0
}

// lastRetryAfter extracts the Retry-After hint from a previous attempt's
// error, if any.
func lastRetryAfter(err error) time.Duration {
	if he, ok := err.(*httpError); ok {
		return he.retryAfter
	}
	return 0
}

// doOnce runs a single HTTP round trip. status is 0 when the request never
// produced a response (transport error).
func (c *Client) doOnce(ctx context.Context, method, path, requestID, idemKey string, hdr http.Header, data []byte, hasBody bool, out any) (int, error) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return 0, fmt.Errorf("rsm: %s %s: %w", method, path, err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	req.Header.Set(obs.RequestIDHeader, requestID)
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("rsm: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		he := &httpError{status: resp.StatusCode, requestID: requestID}
		// Prefer the ID the server actually used (it echoes ours back, but a
		// proxy could have replaced it).
		if echoed := resp.Header.Get(obs.RequestIDHeader); echoed != "" {
			he.requestID = echoed
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			he.retryAfter = time.Duration(secs) * time.Second
		}
		var e server.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			he.msg = fmt.Sprintf("rsm: %s %s: %s (HTTP %d, request %s)", method, path, e.Error, resp.StatusCode, he.requestID)
		} else {
			he.msg = fmt.Sprintf("rsm: %s %s: HTTP %d (request %s)", method, path, resp.StatusCode, he.requestID)
		}
		return resp.StatusCode, he
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("rsm: decode %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// Health checks daemon liveness. A draining daemon reports unhealthy
// (/healthz answers 503).
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// UploadModel publishes a fitted model envelope under name and returns the
// stored version's summary.
func (c *Client) UploadModel(ctx context.Context, name string, env *Envelope) (*ModelInfo, error) {
	var buf bytes.Buffer
	if err := core.WriteEnvelope(&buf, env); err != nil {
		return nil, err
	}
	var info ModelInfo
	req := server.UploadRequest{Name: name, Model: json.RawMessage(buf.Bytes())}
	if err := c.do(ctx, http.MethodPost, "/v1/models", req, &info, false); err != nil {
		return nil, err
	}
	return &info, nil
}

// Models lists the latest version of every stored model.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var resp server.ListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Models, nil
}

// SubmitFit enqueues an async fit job and returns its id. The submit
// carries a generated Idempotency-Key, so it is safely retried on transient
// failures: if an earlier attempt did reach the daemon, the retry returns
// the already-accepted job's ID instead of enqueuing a duplicate.
func (c *Client) SubmitFit(ctx context.Context, req FitRequest) (string, error) {
	var resp server.FitResponse
	if err := c.doWith(ctx, http.MethodPost, "/v1/fit", obs.NewRequestID(), req, &resp, true); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// Refine enqueues an incremental-refit job for the named model: the daemon
// continues the stored fit from its persisted checkpoint with req's new
// samples appended, and publishes a new version only when cross-validation
// error improves. Like SubmitFit the submit carries a generated
// Idempotency-Key, so it is safely retried without risking duplicate jobs.
func (c *Client) Refine(ctx context.Context, name string, req RefineRequest) (string, error) {
	var resp server.RefineResponse
	if err := c.doWith(ctx, http.MethodPost, "/v1/models/"+name+"/refine", obs.NewRequestID(), req, &resp, true); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// WaitRefine polls the refine job every interval until it reaches any
// terminal state or ctx expires, with WaitJob's contract. On done, the
// returned status's Refine field carries the outcome — whether a new
// version was published or the refit was rejected by the publish gate.
func (c *Client) WaitRefine(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	return c.waitTerminal(ctx, "refine", id, interval, c.Job)
}

// Job polls one fit job.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob asks the daemon to cancel a fit job and returns its (possibly
// already terminal) status. Cancellation is idempotent: a finished or
// already-canceled job is returned unchanged.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitMaxPollFailures bounds how many consecutive failed polls a Wait*
// call rides out before surfacing the error. At the default 50ms interval
// this tolerates roughly half a second of daemon unavailability — a restart
// with journal recovery — without abandoning the job.
const waitMaxPollFailures = 10

// waitTerminal is the shared Wait* loop: poll until a terminal state, ctx
// expiry, or waitMaxPollFailures consecutive poll failures. Transient
// failures are expected across a daemon restart: connections drop while the
// process is down, and a poll can even 404 briefly if it lands between
// listener start and journal replay on an old daemon version — the job
// reappears once recovery re-registers it.
func (c *Client) waitTerminal(ctx context.Context, kind, id string, interval time.Duration,
	poll func(context.Context, string) (*JobStatus, error)) (*JobStatus, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	failures := 0
	for {
		st, err := poll(ctx, id)
		switch {
		case err == nil:
			failures = 0
			switch st.State {
			case server.JobDone:
				return st, nil
			case server.JobFailed, server.JobCanceled, server.JobTimedOut:
				return st, fmt.Errorf("rsm: %s %s %s: %s", kind, id, st.State, st.Error)
			}
		case ctx.Err() != nil:
			return st, err
		default:
			failures++
			if failures >= waitMaxPollFailures {
				return nil, fmt.Errorf("rsm: waiting for %s %s: %d consecutive poll failures, giving up: %w",
					kind, id, failures, err)
			}
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// WaitJob polls the job every interval until it reaches any terminal state
// (done, failed, canceled or timed_out) or ctx expires. It returns promptly
// on every terminal state; unsuccessful ones come back alongside an error
// carrying the state and the job's message. Transient poll failures — a
// daemon restarting under the wait — are retried for up to
// waitMaxPollFailures consecutive polls before the wait gives up.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	return c.waitTerminal(ctx, "job", id, interval, c.Job)
}

// WatchJob tails the job's live event stream (SSE), invoking fn for every
// event — state transitions, per-iteration solver telemetry, pipeline
// stages — as the daemon emits it, and returns the job's final status with
// WaitJob's contract: done comes back clean, every other terminal state
// alongside an error carrying the state and the job's message. Fit jobs and
// pipeline jobs both work. The stream is a single attempt (an SSE tail is
// not idempotent work to replay); if the connection drops while the job is
// still live, WatchJob fetches the status once and reports the
// interruption.
func (c *Client) WatchJob(ctx context.Context, id string, fn func(JobEvent)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events?stream=1", nil)
	if err != nil {
		return nil, fmt.Errorf("rsm: watch job %s: %w", id, err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(obs.RequestIDHeader, obs.NewRequestID())
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("rsm: watch job %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return nil, fmt.Errorf("rsm: watch job %s: %s (HTTP %d)", id, e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("rsm: watch job %s: HTTP %d", id, resp.StatusCode)
	}
	// Minimal SSE reader: accumulate data: lines until the blank separator,
	// ignore comments and the id:/event: fields (the type rides in the JSON).
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var ev JobEvent
				if json.Unmarshal(data, &ev) == nil && fn != nil {
					fn(ev)
				}
				data = data[:0]
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	// The stream ended: terminal-state close, daemon drain, or a dropped
	// connection. The status poll below distinguishes them.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("rsm: watch job %s: final status: %w", id, err)
	}
	switch st.State {
	case server.JobDone:
		return st, nil
	case server.JobFailed, server.JobCanceled, server.JobTimedOut:
		return st, fmt.Errorf("rsm: job %s %s: %s", id, st.State, st.Error)
	}
	return st, fmt.Errorf("rsm: watch job %s: event stream ended while job still %s", id, st.State)
}

// JobTrace fetches the job's assembled trace tree — the span-level account
// of where its time went (queue wait, journal, stages, solver, CV folds).
func (c *Client) JobTrace(ctx context.Context, id string) (*TraceResponse, error) {
	var tr TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &tr, true); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Traces lists the daemon's stored traces, newest-first (the unfiltered
// view of GET /v1/traces; use Trace to fetch one tree).
func (c *Client) Traces(ctx context.Context) ([]TraceSummary, error) {
	var resp server.TraceListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Trace fetches one trace's assembled span tree by trace ID (as carried in
// a JobStatus, a metric exemplar, or a slow-request log line).
func (c *Client) Trace(ctx context.Context, traceID string) (*TraceResponse, error) {
	var tr TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+traceID, nil, &tr, true); err != nil {
		return nil, err
	}
	return &tr, nil
}

// RunPipeline enqueues a netlist-in, model-out pipeline job and returns
// its id. Like SubmitFit it carries a generated Idempotency-Key, making the
// submit retryable without risking duplicate jobs.
func (c *Client) RunPipeline(ctx context.Context, req PipelineRequest) (string, error) {
	var resp server.PipelineResponse
	if err := c.doWith(ctx, http.MethodPost, "/v1/pipelines", obs.NewRequestID(), req, &resp, true); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// Pipeline polls one pipeline job; its status carries the stage timeline
// and, once done, the published model and per-solver trials.
func (c *Client) Pipeline(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/pipelines/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelPipeline asks the daemon to cancel a pipeline job and returns its
// (possibly already terminal) status. Cancellation stops the simulator
// workers within one in-flight sample each and publishes nothing.
func (c *Client) CancelPipeline(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/pipelines/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitPipeline polls the pipeline job every interval until it reaches any
// terminal state or ctx expires, with WaitJob's contract: done comes back
// clean, every other terminal state alongside an error carrying the state
// and the job's message, and transient poll failures (daemon restart) are
// ridden out for up to waitMaxPollFailures consecutive polls.
func (c *Client) WaitPipeline(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	return c.waitTerminal(ctx, "pipeline", id, interval, c.Pipeline)
}

// Predict evaluates the named model at a batch of points.
func (c *Client) Predict(ctx context.Context, name string, points [][]float64) ([]float64, error) {
	resp, err := c.PredictInfo(ctx, name, points)
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// PredictInfo evaluates the named model at a batch of points and returns
// the full response: the values plus the model version they came from and
// how many concurrent requests the daemon's micro-batcher coalesced with
// this one. Callers that pin results to versions (e.g. under concurrent
// re-publication of a model) should use this over Predict.
func (c *Client) PredictInfo(ctx context.Context, name string, points [][]float64) (*PredictResponse, error) {
	var resp PredictResponse
	req := server.PredictRequest{Points: points}
	if err := c.do(ctx, http.MethodPost, "/v1/models/"+name+"/predict", req, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PredictAtLeast evaluates the model like PredictInfo, but pins a version
// floor for read-your-writes across a cluster: the node answering serves
// from its local replica only when it already holds at least minVersion of
// the model (the version UploadModel or a refine returned), and forwards
// to the owning shard otherwise — a just-published version is never read
// back older through a lagging replica. Against a single unclustered
// daemon the floor is a no-op.
func (c *Client) PredictAtLeast(ctx context.Context, name string, minVersion int, points [][]float64) (*PredictResponse, error) {
	var resp PredictResponse
	req := server.PredictRequest{Points: points}
	hdr := http.Header{}
	if minVersion > 0 {
		hdr.Set("X-RSM-Min-Version", strconv.Itoa(minVersion))
	}
	if err := c.doHeaders(ctx, http.MethodPost, "/v1/models/"+name+"/predict", "", hdr, req, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteModel removes every stored version of the named model. In a
// cluster the delete lands on the owning shard and propagates to replicas
// as a tombstone, so the name's dead version numbers are never reused.
// Deleting is idempotent from the caller's perspective, but an unknown
// name is an error.
func (c *Client) DeleteModel(ctx context.Context, name string) (*DeleteResponse, error) {
	var resp DeleteResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/models/"+name, nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Yield runs a server-side yield/quantile query against the named model.
func (c *Client) Yield(ctx context.Context, name string, req YieldRequest) (*YieldResponse, error) {
	var resp YieldResponse
	if err := c.do(ctx, http.MethodPost, "/v1/models/"+name+"/yield", req, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the daemon's counter snapshot: the JSON view of GET
// /metrics, a tree of objects whose leaves are numbers, booleans or
// strings. Its paths follow the family table in internal/server/metrics.go;
// ?format=prometheus serves the same families as Prometheus text.
//
// These nine dotted paths are the stable part of the JSON contract, the
// counters the repository benchmark (bench/) reads as numbers, and a
// renamed or removed one reads there as 0 rather than failing:
//
//	predictor_cache.hits        predictor_cache.misses      predictor_cache.evictions
//	journal.appends             jobs.completed              refines.completed
//	pipelines.completed         refines.outcomes.improved   refines.outcomes.rejected
//
// The server package's golden exposition test pins every path of the view.
func (c *Client) Metrics(ctx context.Context) (map[string]any, error) {
	var m map[string]any
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &m, true); err != nil {
		return nil, err
	}
	return m, nil
}
