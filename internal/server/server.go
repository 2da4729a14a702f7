// Package server implements the rsmd HTTP serving layer: a JSON API over a
// model registry that turns fitted sparse response-surface models into a
// long-lived, concurrent service. Fits, netlist pipelines and refines run
// as asynchronous jobs on one bounded worker pool; predictions are batched
// and fanned across workers that reuse per-worker basis-evaluation scratch;
// yield queries reuse the internal/yield virtual Monte Carlo machinery.
// Everything is stdlib-only.
//
// Endpoints:
//
//	POST /v1/models                  upload a serialized model envelope
//	GET  /v1/models                  list stored models
//	GET  /v1/models/{name}           describe the latest version
//	POST /v1/models/{name}/predict   batched f(ΔY) evaluation
//	POST /v1/models/{name}/yield     parametric yield + quantiles
//	POST /v1/models/{name}/refine    incremental refit on appended samples
//	POST   /v1/fit                     submit an async fit job
//	GET    /v1/jobs/{id}               poll a job of any kind
//	DELETE /v1/jobs/{id}               cancel a job of any kind
//	POST   /v1/pipelines               submit a netlist-in, model-out pipeline
//	GET    /v1/pipelines/{id}          poll a pipeline job (stage timeline)
//	DELETE /v1/pipelines/{id}          cancel a pipeline job
//	GET    /metrics                    counters: JSON, or Prometheus text
//	                                   exposition via ?format=prometheus or
//	                                   Accept: text/plain
//	GET    /healthz                    liveness (503 while draining)
//
// Robustness: every route runs under a request deadline with panic
// isolation (recovered panics become 500s and count as incidents in
// /metrics), jobs carry per-job deadlines and cooperative cancellation
// down into the solver inner loops, and predict/yield traffic is shed with
// Retry-After when the job queue saturates.
//
// Observability: every request is assigned (or keeps) an X-Request-Id,
// echoed on the response and stamped on every log line; jobs inherit the
// submitting request's ID and expose a per-iteration solver telemetry
// timeline through GET /v1/jobs/{id}.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/yield"
)

// Config tunes the server; zero values select the documented defaults.
type Config struct {
	// FitWorkers is the async fit worker-pool size — how many fit jobs run
	// concurrently (default 2).
	FitWorkers int
	// FitParallel is the goroutine count of the solver engine's parallel
	// correlation sweep within each fit (0 = backgroundWorkers: every core
	// but one). It threads to core.WithFitWorkers on every job context.
	FitParallel int
	// QueueDepth bounds pending fit jobs; submissions beyond it get 503
	// (default 16).
	QueueDepth int
	// PredictWorkers is the per-request prediction fan-out (default
	// GOMAXPROCS via core.PredictBatch).
	PredictWorkers int
	// MaxBatch bounds points per predict request (default 100000).
	MaxBatch int
	// PredictCacheSize bounds the compiled-predictor LRU in entries (one
	// entry per served model version). 0 selects the default 64; negative
	// disables caching, so every predict request recompiles its predictor —
	// the pre-cache behavior, kept reachable for benchmarking.
	PredictCacheSize int
	// BatchWindow enables predict micro-batching when positive: concurrent
	// predict requests for the same model version are held for up to this
	// long and evaluated as one coalesced batch. 0 (the default) disables
	// coalescing — every request evaluates immediately.
	BatchWindow time.Duration
	// BatchMaxPoints caps the points coalesced into one micro-batch flush
	// (default 4096); reaching it flushes the window early, and a single
	// request already this large bypasses coalescing. Ignored when
	// BatchWindow is 0.
	BatchMaxPoints int
	// MaxYieldSamples bounds virtual MC samples per yield request
	// (default 2000000).
	MaxYieldSamples int
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request handler deadline (default 30s;
	// negative disables). Fit jobs are bounded by FitTimeout instead — the
	// request only enqueues them.
	RequestTimeout time.Duration
	// FitTimeout caps each fit job's run time (default 5m; negative
	// disables). Requests may tighten it per job via timeout_seconds.
	FitTimeout time.Duration
	// PipelineTimeout caps each pipeline job end to end — parse through
	// publish, simulation included (default 10m; negative disables).
	// Requests may tighten it per job via timeout_seconds.
	PipelineTimeout time.Duration
	// SimWorkers is the simulator worker-pool size per pipeline sampling
	// stage (0 = backgroundWorkers: every core but one).
	SimWorkers int
	// JournalDir enables the durable job journal: every fit/pipeline job
	// lifecycle event is fsync'd to an append-only log under this directory
	// before it is acknowledged, and on boot the journal is replayed —
	// terminal jobs stay queryable, live jobs are re-enqueued. Empty (the
	// default) keeps the queue in-memory only.
	JournalDir string
	// RecoveryMaxAttempts is the crash-loop guard: a replayed job that has
	// already been started this many times without reaching a terminal
	// state is quarantined as failed instead of being re-run (default 3).
	RecoveryMaxAttempts int
	// TraceStoreSize bounds the completed-trace ring served by /v1/traces.
	// 0 selects the default 256; negative disables tracing entirely (spans
	// become no-ops and the trace endpoints answer 404).
	TraceStoreSize int
	// TraceSlow is the slow-trace threshold: traces at or over it are
	// always kept by tail sampling, and requests over it escalate their
	// access-log line to Warn (default 1s).
	TraceSlow time.Duration
	// TraceSample is the keep probability for fast, successful HTTP traces
	// (error, slow and job traces are always kept). 0 selects the default
	// 1.0 (keep everything); negative keeps only error/slow/job traces.
	TraceSample float64
	// Logger receives the server's structured logs (default slog.Default()).
	// Request-scoped loggers derived from it carry request_id and route.
	Logger *slog.Logger
	// Cluster wires this node into a shard ring: model-keyed routes are
	// forwarded to their owning shard, job IDs are minted with this node's
	// member name so polls through any node redirect home, the GET /v1/sync
	// protocol serves peers, and the background replicator pulls missing
	// versions. nil (the default) serves everything locally. The server owns
	// the cluster's lifecycle: New starts its replicator, Close/Shutdown stop
	// it.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.FitWorkers <= 0 {
		c.FitWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 100000
	}
	if c.MaxYieldSamples <= 0 {
		c.MaxYieldSamples = 2000000
	}
	switch {
	case c.PredictCacheSize == 0:
		c.PredictCacheSize = 64
	case c.PredictCacheSize < 0:
		c.PredictCacheSize = 0 // explicit opt-out
	}
	if c.BatchMaxPoints <= 0 {
		c.BatchMaxPoints = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = 30 * time.Second
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0 // explicit opt-out
	}
	switch {
	case c.FitTimeout == 0:
		c.FitTimeout = 5 * time.Minute
	case c.FitTimeout < 0:
		c.FitTimeout = 1000 * time.Hour // effectively unbounded
	}
	switch {
	case c.PipelineTimeout == 0:
		c.PipelineTimeout = 10 * time.Minute
	case c.PipelineTimeout < 0:
		c.PipelineTimeout = 1000 * time.Hour // effectively unbounded
	}
	if c.RecoveryMaxAttempts <= 0 {
		c.RecoveryMaxAttempts = 3
	}
	if c.FitParallel <= 0 {
		c.FitParallel = backgroundWorkers()
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = backgroundWorkers()
	}
	return c
}

// backgroundWorkers is the default in-job fan-out of fit sweeps and pipeline
// simulations: max(1, GOMAXPROCS−1). No single job's goroutines can then
// occupy every core a predict needs — on a 2-vCPU host, fanning each job out
// to both cores raised concurrent predicts' p99 from ~6 ms to ~60 ms (bench
// mixed-ops). Job concurrency (FitWorkers) is separate.
func backgroundWorkers() int {
	return max(1, runtime.GOMAXPROCS(0)-1)
}

// Server wires the registry, job queue and metrics behind an http.Handler.
type Server struct {
	cfg       Config
	registry  *registry.Registry
	jobs      *jobQueue
	jnl       *journal.Journal // nil when JournalDir is empty
	metrics   *metrics
	predCache *predictorCache  // nil when caching is disabled
	batcher   *microBatcher    // nil when micro-batching is disabled
	traces    *trace.Store     // nil when tracing is disabled
	cluster   *cluster.Cluster // nil when unclustered
	proxyHTTP *http.Client     // client for forwarded proxy hops
	log       *slog.Logger
	mux       *http.ServeMux
	draining  atomic.Bool
}

// New builds a server over the given registry and starts its fit workers.
// When Config.JournalDir is set it first opens the durable job journal and
// replays it — recovered live jobs are already queued when New returns.
// Call Close (or the bounded Shutdown) to drain the workers and close the
// journal.
func New(reg *registry.Registry, cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg.withDefaults(),
		registry: reg,
		metrics:  newMetrics(),
		cluster:  cfg.Cluster,
		// Forwarded hops never follow redirects themselves: a 307 minted by
		// the owning shard (job-poll affinity) belongs to the client.
		proxyHTTP: &http.Client{
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.metrics.fitParallel = s.cfg.FitParallel
	s.traces = trace.NewStore(trace.Config{
		Capacity:      s.cfg.TraceStoreSize,
		SlowThreshold: s.cfg.TraceSlow,
		SampleRate:    s.cfg.TraceSample,
	})

	var replay *journal.Replay
	if s.cfg.JournalDir != "" {
		var err error
		s.jnl, replay, err = journal.Open(s.cfg.JournalDir, journal.Options{
			Logger:   s.log,
			OnAppend: s.metrics.observeJournalAppend,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open job journal: %w", err)
		}
	}
	// Size the queue so the recovered backlog rides on top of the
	// configured admission capacity: live replayed jobs never consume the
	// headroom new submissions were promised.
	depth := s.cfg.QueueDepth
	if replay != nil {
		depth += len(replay.Live())
	}
	s.jobs = newJobQueue(depth, s.metrics.countJobEnd, s.jnl, s.log)
	if s.cluster != nil && s.cluster.SelfName() != "" {
		// Node-prefixed job IDs ("s1.job-000042") let any node in the ring
		// route a poll back to the shard that runs the job.
		s.jobs.idPrefix = s.cluster.SelfName() + "."
	}
	if replay != nil {
		s.recoverJournal(replay)
	}
	s.jobs.startWorkers(s.cfg.FitWorkers, s.runJob)
	if s.cfg.PredictCacheSize > 0 {
		s.predCache = newPredictorCache(s.cfg.PredictCacheSize)
		// Publishing a new version moves traffic off the old ones; drop the
		// name's cached predictors so they don't squat in the LRU. The hook
		// runs under the registry lock, before any Get can see the version.
		reg.OnPut(func(name string, version int) {
			s.predCache.invalidate(name)
		})
	}
	s.batcher = newMicroBatcher(s.cfg.BatchWindow, s.cfg.BatchMaxPoints,
		s.cfg.PredictWorkers, s.metrics.observeCoalesced)

	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		// protect sits inside trace so that panics recovered into 500s still
		// show up in the per-route error counters and panic log lines carry
		// the request ID.
		mux.HandleFunc(pattern, s.trace(pattern, s.protect(pattern, h)))
	}
	route("POST /v1/models", s.handleUpload)
	route("GET /v1/models", s.handleList)
	route("GET /v1/models/{name}", s.handleModelInfo)
	route("DELETE /v1/models/{name}", s.handleModelDelete)
	route("POST /v1/models/{name}/predict", s.handlePredict)
	route("POST /v1/models/{name}/yield", s.handleYield)
	route("POST /v1/models/{name}/refine", s.handleRefine)
	route("POST /v1/fit", s.handleFit)
	route("GET /v1/jobs/{id}", s.handleJob)
	route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	route("POST /v1/pipelines", s.handlePipelineSubmit)
	route("GET /v1/pipelines/{id}", s.handlePipelineStatus)
	route("DELETE /v1/pipelines/{id}", s.handlePipelineCancel)
	route("GET /v1/traces", s.handleTraceList)
	route("GET /v1/traces/{id}", s.handleTraceGet)
	route("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	// The events route streams SSE when asked to; it runs without the
	// request deadline so a tail can outlive RequestTimeout.
	mux.HandleFunc("GET /v1/jobs/{id}/events",
		s.trace("GET /v1/jobs/{id}/events", s.protectStreaming("GET /v1/jobs/{id}/events", s.handleJobEvents)))
	// The sync protocol serves peers' replicators; it answers on
	// unclustered nodes too, so a single-node registry can be drained into
	// a cluster.
	route("GET /v1/sync", s.handleSyncManifest)
	route("GET /v1/sync/models/{name}/{version}", s.handleSyncEntry)
	route("GET /metrics", s.handleMetrics)
	route("GET /healthz", s.handleHealth)
	s.mux = mux
	if s.cluster != nil {
		s.cluster.Start()
	}
	return s, nil
}

// Close stops accepting fit jobs and waits for running ones, however long
// they take. Shutdown is the bounded variant.
func (s *Server) Close() {
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.jobs.close()
	s.closeJournal()
}

// closeJournal closes the journal after the workers drained, so no append
// can race the close.
func (s *Server) closeJournal() {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Close(); err != nil {
		s.log.Warn("closing job journal failed", "error", err)
	}
}

// BeginDrain flips /healthz to 503 so load balancers stop routing here,
// without yet refusing work. Call it at the start of a graceful shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the daemon within ctx's budget: new fit submissions are
// refused, in-flight jobs get until ctx expires to finish, and stragglers
// are then canceled (landing in state canceled) and awaited. It returns
// ctx.Err() when the budget ran out, nil when everything drained in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.Close()
	}
	err := s.jobs.shutdown(ctx)
	s.closeJournal()
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// writeJSON emits a JSON response body with the given status. The returned
// error reports an encode/write failure (typically a vanished client);
// handlers that maintain served-work counters must check it so a failed
// write is not counted as served.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeErr emits the uniform error body.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly parses the request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// decodeBodyRaw is decodeBody for handlers whose routing key lives in the
// body: it buffers the raw bytes so the request can still be forwarded
// verbatim to the owning shard after the name was decoded locally.
func decodeBodyRaw(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request body: %v", err)
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return raw, true
}

// modelInfo summarizes a registry entry for API responses.
func modelInfo(e *registry.Entry) ModelInfo {
	return ModelInfo{
		Name:       e.Name,
		Version:    e.Version,
		M:          e.Model().M,
		NNZ:        e.Model().NNZ(),
		Basis:      e.Envelope.Basis,
		Provenance: e.Envelope.Prov,
		CreatedAt:  e.CreatedAt,
	}
}

// validatePoints checks a predict batch against the basis dimension and
// rejects non-finite coordinates, naming the offending row (and column) so
// the caller can fix the exact input. NaN/Inf cannot arrive through strict
// JSON today, but the check keeps the hot path safe against any future
// ingestion format.
func validatePoints(points [][]float64, dim int) error {
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("point %d has dimension %d, want %d", i, len(p), dim)
		}
		for j, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("point %d coordinate %d is %v (must be finite)", i, j, x)
			}
		}
	}
	return nil
}

// lookupModel resolves the {name} path segment against the registry.
func (s *Server) lookupModel(w http.ResponseWriter, r *http.Request) (*registry.Entry, bool) {
	name := r.PathValue("name")
	e, ok := s.registry.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown model %q", name)
		return nil, false
	}
	return e, true
}

// handleUpload stores a pre-fitted serialized model under a name.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	raw, ok := decodeBodyRaw(w, r, &req)
	if !ok {
		return
	}
	if err := registry.ValidateName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.forwardOwned(w, r, "upload", req.Name, raw) {
		return
	}
	if len(req.Model) == 0 {
		writeErr(w, http.StatusBadRequest, "missing model envelope")
		return
	}
	env, err := core.ReadEnvelope(bytes.NewReader(req.Model))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if env.Basis.IsZero() {
		writeErr(w, http.StatusBadRequest, "model envelope has no basis descriptor; re-serialize it with the versioned format (rsmfit -out)")
		return
	}
	entry, err := s.registry.Put(req.Name, env)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, modelInfo(entry))
}

// handleList returns the latest version of every stored model.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.registry.List()
	resp := ListResponse{Models: make([]ModelInfo, len(entries))}
	for i, e := range entries {
		resp.Models[i] = modelInfo(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelInfo describes the latest version of one model.
func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	if s.routeRead(w, r, "info", r.PathValue("name")) {
		return
	}
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, modelInfo(e))
}

// handlePredict evaluates the model at a batch of points through the
// serving prediction engine: the compiled predictor for this model version
// (LRU-cached across requests) evaluates the batch, optionally after the
// micro-batcher coalesced it with concurrent requests for the same version.
// It is the latency-sensitive path: it sheds load when the fit queue is
// saturated and rejects malformed batches (wrong dimension, NaN/Inf
// coordinates) with the offending row index before any evaluation work
// happens.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// Routing comes before shedding: this node's fit-queue pressure is no
	// reason to reject a request another shard will serve.
	if s.routeRead(w, r, "predict", r.PathValue("name")) {
		return
	}
	if s.shed(w) {
		return
	}
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	var req PredictRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	if len(req.Points) > s.cfg.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch of %d points exceeds limit %d", len(req.Points), s.cfg.MaxBatch)
		return
	}
	cp, err := s.compiled(r.Context(), e)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := validatePoints(req.Points, cp.Dim()); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Chaos hook: injected delays exercise the request deadline below,
	// injected panics exercise the recovery middleware.
	if err := faultinject.FireCtx(r.Context(), "server.predict"); err != nil {
		writeErr(w, http.StatusInternalServerError, "injected fault: %v", err)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
		return
	}
	values, coalesced, err := s.predictValues(r.Context(), e, cp, req.Points)
	if err != nil {
		// Only this caller's context death lands here; the other row groups
		// of a coalesced batch are unaffected.
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
		return
	}
	resp := PredictResponse{Model: e.Name, Version: e.Version, Values: values, Coalesced: coalesced}
	// Count served points only after the response body actually went out:
	// a failed encode (client gone mid-write) must not inflate the
	// served-prediction counters.
	if writeJSON(w, http.StatusOK, resp) == nil {
		s.metrics.countPredictions(e.Name, len(req.Points))
	}
}

// predictValues evaluates one request's row group, through the
// micro-batcher when enabled and directly otherwise. coalesced reports how
// many requests shared the evaluation (1 = evaluated alone).
func (s *Server) predictValues(ctx context.Context, e *registry.Entry, cp *core.CompiledPredictor, points [][]float64) (values []float64, coalesced int, err error) {
	if s.batcher == nil {
		values, err = cp.Predict(nil, points, s.cfg.PredictWorkers)
		return values, 1, err
	}
	return s.batcher.predict(ctx, predictorKey(e.Name, e.Version), cp, points)
}

// handleYield estimates parametric yield, moments and quantiles for one
// model via virtual Monte Carlo.
func (s *Server) handleYield(w http.ResponseWriter, r *http.Request) {
	if s.routeRead(w, r, "yield", r.PathValue("name")) {
		return
	}
	if s.shed(w) {
		return
	}
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	var req YieldRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.N == 0 {
		req.N = 100000
	}
	if req.N < 0 || req.N > s.cfg.MaxYieldSamples {
		writeErr(w, http.StatusBadRequest, "n=%d outside (0, %d]", req.N, s.cfg.MaxYieldSamples)
		return
	}
	for _, p := range req.Quantiles {
		if p <= 0 || p >= 1 {
			writeErr(w, http.StatusBadRequest, "quantile %g outside (0, 1)", p)
			return
		}
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	b, err := e.Basis()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "rebuild basis: %v", err)
		return
	}
	an, err := yield.NewAnalyzer(b, map[string]*core.Model{e.Name: e.Model()})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := YieldResponse{
		Model:   e.Name,
		Version: e.Version,
		Mean:    yield.ModelMean(e.Model(), b),
		Std:     yield.ModelStd(e.Model(), b),
		N:       req.N,
	}
	if req.Low != nil || req.High != nil {
		spec := yield.Spec{Low: math.Inf(-1), High: math.Inf(1)}
		if req.Low != nil {
			spec.Low = *req.Low
		}
		if req.High != nil {
			spec.High = *req.High
		}
		res, err := an.Yield(rng.New(req.Seed), req.N, map[string]yield.Spec{e.Name: spec})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.Yield = &res.Yield
	}
	if len(req.Quantiles) > 0 {
		qs, err := an.Quantiles(rng.New(req.Seed), req.N, e.Name, req.Quantiles)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.Quantiles = qs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFit validates and enqueues an async fit job.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	raw, ok := decodeBodyRaw(w, r, &req)
	if !ok {
		return
	}
	if err := registry.ValidateName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.forwardOwned(w, r, "fit", req.Name, raw) {
		return
	}
	// Normalize defaults and reject cheaply detectable bad requests
	// synchronously; dataset-dependent validation happens in the worker.
	if req.Solver == "" {
		req.Solver = "omp"
	}
	if _, err := core.SolverByName(req.Solver); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Degree == 0 {
		req.Degree = 1
	}
	if req.Degree < 1 || req.Degree > 6 {
		writeErr(w, http.StatusBadRequest, "unsupported degree %d (want 1..6)", req.Degree)
		return
	}
	if req.Folds == 0 {
		req.Folds = 4
	}
	if req.Folds < 2 {
		writeErr(w, http.StatusBadRequest, "folds=%d, need ≥ 2", req.Folds)
		return
	}
	if req.MaxLambda == 0 {
		req.MaxLambda = 50
	}
	if req.MaxLambda < 1 {
		writeErr(w, http.StatusBadRequest, "max_lambda=%d, need ≥ 1", req.MaxLambda)
		return
	}
	if req.TimeoutSeconds < 0 {
		writeErr(w, http.StatusBadRequest, "timeout_seconds=%g, need ≥ 0", req.TimeoutSeconds)
		return
	}
	if req.CSV == "" && len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no dataset: provide csv or points+values")
		return
	}
	s.submitJob(w, r, &req, "solver", req.Solver, "name", req.Name)
}

// submitJob is the shared tail of the job submit handlers: it enqueues req
// under the request's Idempotency-Key and answers 202 with the new job, or
// 503 + Retry-After when the queue or journal refuses it. A key seen before
// gets the original job back (202, Idempotency-Replayed) instead of a
// duplicate — or 409 when that job is of another kind. attrs are the kind's
// attributes on the "job submitted" log line.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, req jobRequest, attrs ...any) {
	idemKey, ok := idempotencyKey(w, r)
	if !ok {
		return
	}
	j, existing, err := s.jobs.enqueue(r.Context(), req, obs.RequestID(r.Context()), idemKey)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if existing {
		if j.kind != req.kind() {
			writeErr(w, http.StatusConflict,
				"idempotency key %q was used by %s job %s", idemKey, j.kind, j.id)
			return
		}
		w.Header().Set(idemReplayedHeader, "true")
		writeJSON(w, http.StatusAccepted, JobResponse{JobID: j.id, State: j.status().State})
		return
	}
	s.metrics.countSubmitted(j.kind)
	obs.Log(r.Context()).Info(j.kind+" job submitted", append(append([]any{"job_id", j.id}, attrs...),
		"queue_depth", s.jobs.depth())...)
	writeJSON(w, http.StatusAccepted, JobResponse{JobID: j.id, State: JobPending})
}

// handleJob reports the status of a job of any kind.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobCancel cancels a job of any kind. A pending job is canceled immediately;
// a running one is interrupted through its context and reaches state
// canceled when the solver's next cooperative check fires. Canceling a job
// that already finished is a no-op that returns its terminal status.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return
	}
	j, ok := s.jobs.cancelJob(id, "canceled by client request")
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleMetrics serves the daemon's counters. The default body is the
// expvar-style JSON tree; Prometheus text exposition (format 0.0.4, with
// cumulative le buckets) is selected by ?format=prometheus or an Accept
// header preferring text/plain — what a Prometheus scraper sends.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.writePrometheus(w, s.registry.Len(), s.jobs.depth(), s.predCache.stats(), s.journalStatus(), s.traces.Stats(), s.clusterStats()); err != nil {
			obs.Log(r.Context()).Error("metrics exposition write failed", "error", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.registry.Len(), s.jobs.depth(), s.predCache.stats(), s.journalStatus(), s.traces.Stats(), s.clusterStats()))
}

// journalStatus reads the live durable-journal state for the exposition
// and health endpoints.
func (s *Server) journalStatus() journalStatus {
	if s.jnl == nil {
		return journalStatus{}
	}
	return journalStatus{enabled: true, degraded: s.jnl.Degraded()}
}

// wantsPrometheus decides the /metrics representation: the explicit
// format=prometheus query parameter wins; otherwise an Accept header that
// mentions text/plain (or the OpenMetrics type) without asking for JSON
// selects the exposition format.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "application/openmetrics-text")
}

// handleHealth is the liveness/readiness probe. A draining daemon answers
// 503 with status "draining" so load balancers rotate it out while
// in-flight jobs finish.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Version:       obs.Version,
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Models:        s.registry.Len(),
	}
	// The journal field reports durability, not liveness: a degraded
	// journal sheds async submits but predict/read traffic still serves,
	// so the daemon stays "ok" and load balancers keep routing here.
	switch js := s.journalStatus(); {
	case !js.enabled:
		resp.Journal = "disabled"
	case js.degraded:
		resp.Journal = "degraded"
	default:
		resp.Journal = "ok"
	}
	if s.draining.Load() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
