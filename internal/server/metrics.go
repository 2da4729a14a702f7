package server

import (
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// latencyBounds are the histogram bucket upper bounds in seconds; an
// implicit +Inf bucket catches the rest. Chosen to straddle the expected
// range from in-memory predict calls to multi-second fits.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// fitDurationBounds cover fit jobs: sub-second toy fits through the 5m
// default deadline.
var fitDurationBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// fitIterationBounds cover path lengths: λ is rarely above the default
// max_lambda of 50, but operators can raise it.
var fitIterationBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// queueWaitBounds cover the pending-job wait: instant pickup through the
// multi-minute backlog a saturated daemon accumulates.
var queueWaitBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300}

// coalescedCallBounds cover requests-per-flush of the predict
// micro-batcher: 1 (a request that rode alone) through heavy fan-in.
var coalescedCallBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// coalescedPointBounds cover total points per coalesced flush, up to the
// default BatchMaxPoints of 4096 and beyond.
var coalescedPointBounds = []float64{1, 8, 32, 128, 512, 2048, 8192}

// pipelineStageBounds cover pipeline stage durations: instant parse/space
// stages through multi-minute sampling campaigns.
var pipelineStageBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300}

// journalFsyncBounds cover the per-record append+fsync latency of the job
// journal: tens of microseconds on a warm NVMe page cache through the
// hundreds of milliseconds a contended spinning disk can take.
var journalFsyncBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5}

// routeStats accumulates per-endpoint request counts and latencies. The
// buckets hold per-interval counts; both exposition formats render them
// cumulatively (Prometheus `le` semantics).
type routeStats struct {
	count   int64
	errors  int64 // responses with status ≥ 400
	sumSec  float64
	buckets []int64 // len(latencyBounds)+1, last is +Inf
	// exemplars holds the most recent traced request per bucket interval
	// (lazily allocated; zero entries mean none), rendered as OpenMetrics
	// exemplar suffixes on the latency bucket lines.
	exemplars []obs.Exemplar
}

// metrics is the daemon's stdlib-only observability state, exported as
// expvar-style JSON and Prometheus text exposition by GET /metrics. All
// methods are safe for concurrent use.
type metrics struct {
	start time.Time
	// fitParallel is the effective engine sweep worker count per fit job
	// (Config.FitParallel after defaults). Set once at server construction,
	// read-only afterwards.
	fitParallel int

	mu          sync.Mutex
	routes      map[string]*routeStats
	predictions map[string]int64 // model name → points predicted
	// jobs, pipelines and refines are the per-kind job tallies, reached by
	// kind name through the jobKinds table.
	jobs, pipelines, refines jobCounters
	// refits tallies completed refine jobs by publish-gate outcome — the
	// rsmd_refits_total{outcome} counter.
	refits struct{ improved, rejected int64 }
	// checkpointBytes is the serialized size of the latest persisted fit
	// checkpoint per model name — the rsmd_checkpoint_bytes gauge.
	checkpointBytes map[string]int64
	// activePipelines counts pipeline jobs currently running (between
	// worker pickup and terminal state) — the rsmd_pipelines_active gauge.
	activePipelines int64
	// samplesSimulated counts circuit simulations executed by pipeline
	// sampling stages.
	samplesSimulated int64
	panics           int64 // recovered panics (handlers + fit workers)
	shed             int64 // requests rejected by load shedding
	// journal tracks the durable job journal: append outcomes plus the
	// boot-time replay/recovery/quarantine tallies.
	journal journalCounters
	// proxy tallies this node's cluster proxy layer; the replicator's own
	// counters live in cluster.Stats and are read at scrape time.
	proxy proxyCounters

	// Self-locking histograms for the fit pipeline; kept outside mu so the
	// fit workers never contend with request accounting.
	fitDuration   *obs.Histogram
	fitIterations *obs.Histogram
	queueWait     *obs.Histogram

	// refineFitWarm/refineFitCold split refine fit times by whether the
	// solver continued warm from the parent's state or refit cold — the
	// observable half of the "warm ≤ 50% of cold" contract.
	refineFitWarm *obs.Histogram
	refineFitCold *obs.Histogram

	// Micro-batcher coalescing histograms, observed once per executed
	// flush; self-locking for the same reason.
	coalescedCalls  *obs.Histogram
	coalescedPoints *obs.Histogram

	// stageDuration holds one self-locking histogram per pipeline stage,
	// keyed by stage name. The map is built once at construction and never
	// mutated, so lookups need no lock.
	stageDuration map[string]*obs.Histogram

	// journalFsync samples the append+fsync latency of successful journal
	// writes; self-locking so the submit path never contends with request
	// accounting.
	journalFsync *obs.Histogram
}

// jobCounters are one job kind's mu-guarded submit and terminal-state
// tallies.
type jobCounters struct{ submitted, completed, failed, canceled, timedOut int64 }

// fields renders the tallies under their /metrics JSON keys.
func (c jobCounters) fields() map[string]any {
	return map[string]any{
		"submitted": c.submitted,
		"completed": c.completed,
		"failed":    c.failed,
		"canceled":  c.canceled,
		"timed_out": c.timedOut,
	}
}

// writeJobCounters renders one kind's tallies as its two Prometheus
// families; noun starts their help text ("Fit", "Pipeline", "Refine").
func writeJobCounters(pw *obs.PromWriter, submitted, total, noun string, c jobCounters) {
	pw.Meta(submitted, "counter", noun+" jobs accepted into the queue.")
	pw.Sample(submitted, "", float64(c.submitted))
	pw.Meta(total, "counter", noun+" jobs reaching a terminal state, by state.")
	pw.Sample(total, obs.Label("state", JobDone), float64(c.completed))
	pw.Sample(total, obs.Label("state", JobFailed), float64(c.failed))
	pw.Sample(total, obs.Label("state", JobCanceled), float64(c.canceled))
	pw.Sample(total, obs.Label("state", JobTimedOut), float64(c.timedOut))
}

// proxyCounters are the mu-guarded cluster proxy-layer tallies.
type proxyCounters struct {
	forwards      map[string]int64 // requests proxied to their owning shard, by route kind
	forwardErrors int64            // forwards that failed (peer down or unreachable)
	redirects     int64            // job polls answered with a 307 to the minting shard
	replicaReads  int64            // reads served from a local replica under a satisfied min-version
}

// countForward tallies one request proxied to its owning shard.
func (m *metrics) countForward(kind string) {
	m.mu.Lock()
	m.proxy.forwards[kind]++
	m.mu.Unlock()
}

// countForwardError tallies one forward that failed because the owning
// shard was down, unreachable, or backing off.
func (m *metrics) countForwardError() {
	m.mu.Lock()
	m.proxy.forwardErrors++
	m.mu.Unlock()
}

// countRedirect tallies one job poll redirected to the minting shard.
func (m *metrics) countRedirect() {
	m.mu.Lock()
	m.proxy.redirects++
	m.mu.Unlock()
}

// countReplicaRead tallies one read served locally from a synced replica.
func (m *metrics) countReplicaRead() {
	m.mu.Lock()
	m.proxy.replicaReads++
	m.mu.Unlock()
}

// journalCounters are the mu-guarded durable-journal tallies.
type journalCounters struct {
	appends      int64 // records durably appended (write + fsync succeeded)
	appendErrors int64 // append attempts that failed (disk pressure)
	replayed     int64 // jobs reconstructed from the journal at boot
	recovered    int64 // replayed live jobs re-enqueued to run again
	quarantined  int64 // replayed jobs retired by the crash-loop guard
}

func newMetrics() *metrics {
	m := &metrics{
		start:           time.Now(),
		routes:          make(map[string]*routeStats),
		predictions:     make(map[string]int64),
		checkpointBytes: make(map[string]int64),
		fitDuration:     obs.NewHistogram(fitDurationBounds...),
		fitIterations:   obs.NewHistogram(fitIterationBounds...),
		queueWait:       obs.NewHistogram(queueWaitBounds...),
		refineFitWarm:   obs.NewHistogram(fitDurationBounds...),
		refineFitCold:   obs.NewHistogram(fitDurationBounds...),
		coalescedCalls:  obs.NewHistogram(coalescedCallBounds...),
		coalescedPoints: obs.NewHistogram(coalescedPointBounds...),
		stageDuration:   make(map[string]*obs.Histogram, len(pipeline.Stages)),
		journalFsync:    obs.NewHistogram(journalFsyncBounds...),
	}
	m.proxy.forwards = make(map[string]int64)
	for _, stage := range pipeline.Stages {
		m.stageDuration[stage] = obs.NewHistogram(pipelineStageBounds...)
	}
	return m
}

// countJournal applies one update to the journal counters under the lock.
func (m *metrics) countJournal(fn func(*journalCounters)) {
	m.mu.Lock()
	fn(&m.journal)
	m.mu.Unlock()
}

// observeJournalAppend is the journal's OnAppend hook: it tallies the
// outcome and samples the fsync-inclusive latency of successful appends.
func (m *metrics) observeJournalAppend(d time.Duration, err error) {
	m.mu.Lock()
	if err != nil {
		m.journal.appendErrors++
	} else {
		m.journal.appends++
	}
	m.mu.Unlock()
	if err == nil {
		m.journalFsync.Observe(d.Seconds())
	}
}

// countRefit tallies one completed refine by publish-gate outcome
// (RefineImproved / RefineRejected).
func (m *metrics) countRefit(outcome string) {
	m.mu.Lock()
	switch outcome {
	case RefineImproved:
		m.refits.improved++
	case RefineRejected:
		m.refits.rejected++
	}
	m.mu.Unlock()
}

// observeRefineFit records one refine's fit time into the warm or cold
// histogram per how the solver actually continued.
func (m *metrics) observeRefineFit(d time.Duration, warm bool) {
	if warm {
		m.refineFitWarm.Observe(d.Seconds())
		return
	}
	m.refineFitCold.Observe(d.Seconds())
}

// setCheckpointBytes updates the per-model checkpoint size gauge after a
// checkpoint was persisted.
func (m *metrics) setCheckpointBytes(model string, n int) {
	m.mu.Lock()
	m.checkpointBytes[model] = int64(n)
	m.mu.Unlock()
}

// pipelineActive moves the running-pipelines gauge by delta (±1).
func (m *metrics) pipelineActive(delta int64) {
	m.mu.Lock()
	m.activePipelines += delta
	m.mu.Unlock()
}

// observePipelineStage records one completed pipeline stage: its duration
// into the per-stage histogram, and — for the sampling stage — the
// simulated sample count into the samples counter.
func (m *metrics) observePipelineStage(stage string, seconds float64, samples int) {
	if h, ok := m.stageDuration[stage]; ok {
		h.Observe(seconds)
	}
	if stage == pipeline.StageSample && samples > 0 {
		m.mu.Lock()
		m.samplesSimulated += int64(samples)
		m.mu.Unlock()
	}
}

// observeCoalesced records one executed micro-batch flush: how many
// requests it coalesced and how many points they totaled.
func (m *metrics) observeCoalesced(calls, points int) {
	m.coalescedCalls.Observe(float64(calls))
	m.coalescedPoints.Observe(float64(points))
}

// observe records one request against the labeled route. A non-empty
// traceID stamps the request's latency bucket with an exemplar pointing at
// its trace (last traced request wins).
func (m *metrics) observe(route string, status int, d time.Duration, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[route]
	if rs == nil {
		rs = &routeStats{buckets: make([]int64, len(latencyBounds)+1)}
		m.routes[route] = rs
	}
	rs.count++
	if status >= 400 {
		rs.errors++
	}
	sec := d.Seconds()
	rs.sumSec += sec
	i := sort.SearchFloat64s(latencyBounds, sec)
	rs.buckets[i]++
	if traceID != "" {
		if rs.exemplars == nil {
			rs.exemplars = make([]obs.Exemplar, len(rs.buckets))
		}
		rs.exemplars[i] = obs.Exemplar{TraceID: traceID, Value: sec, Time: time.Now()}
	}
}

// countPredictions adds n served points to the model's counter.
func (m *metrics) countPredictions(model string, n int) {
	m.mu.Lock()
	m.predictions[model] += int64(n)
	m.mu.Unlock()
}

// countSubmitted tracks one accepted job of the given kind.
func (m *metrics) countSubmitted(kind string) {
	k, _ := kindByName(kind)
	m.mu.Lock()
	k.counters(m).submitted++
	m.mu.Unlock()
}

// countJobEnd tracks one job of the given kind reaching the given terminal
// state.
func (m *metrics) countJobEnd(kind, state string) {
	k, _ := kindByName(kind)
	m.mu.Lock()
	c := k.counters(m)
	switch state {
	case JobDone:
		c.completed++
	case JobFailed:
		c.failed++
	case JobCanceled:
		c.canceled++
	case JobTimedOut:
		c.timedOut++
	}
	m.mu.Unlock()
}

// countPanic tracks one recovered panic — an incident that would have
// crashed the daemon before panic isolation existed.
func (m *metrics) countPanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// countShed tracks one request rejected because the daemon was saturated.
func (m *metrics) countShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// observeQueueWait records how long a job sat pending before a worker
// picked it up.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.queueWait.Observe(d.Seconds())
}

// observeFit records one completed fit job: wall-clock duration and the
// number of final-refit path iterations. A non-empty traceID attaches an
// exemplar to the fit-duration bucket the job landed in.
func (m *metrics) observeFit(d time.Duration, iterations int, traceID string) {
	m.fitDuration.ObserveExemplar(d.Seconds(), traceID)
	m.fitIterations.Observe(float64(iterations))
}

// journalStatus is the live durable-journal state threaded into the
// exposition: whether a journal is attached at all, and whether its last
// append failed (disk pressure — async submits are being 503'd).
type journalStatus struct {
	enabled  bool
	degraded bool
}

// Snapshot renders the current state as a JSON-encodable tree. Histogram
// buckets are cumulative, matching their Prometheus-style `le` naming.
func (m *metrics) Snapshot(models, queueDepth int, cache cacheStats, jnl journalStatus, traces trace.Stats, cl *clusterExposition) map[string]any {
	m.mu.Lock()
	routes := make(map[string]any, len(m.routes))
	for route, rs := range m.routes {
		snap := obs.CumulativeSnapshot(latencyBounds, rs.buckets, rs.sumSec)
		routes[route] = map[string]any{
			"count":               rs.count,
			"errors":              rs.errors,
			"latency_seconds_sum": rs.sumSec,
			"latency_buckets":     snap.JSONBuckets(),
		}
	}
	predictions := make(map[string]int64, len(m.predictions))
	for name, n := range m.predictions {
		predictions[name] = n
	}
	jobs := m.jobs.fields()
	pipelines := m.pipelines.fields()
	pipelines["active"] = m.activePipelines
	pipelines["samples_simulated"] = m.samplesSimulated
	refines := m.refines.fields()
	refines["outcomes"] = map[string]int64{
		RefineImproved: m.refits.improved,
		RefineRejected: m.refits.rejected,
	}
	ckBytes := make(map[string]int64, len(m.checkpointBytes))
	for name, n := range m.checkpointBytes {
		ckBytes[name] = n
	}
	incidents := map[string]int64{
		"panics_recovered": m.panics,
		"requests_shed":    m.shed,
	}
	jc := m.journal
	forwards := make(map[string]int64, len(m.proxy.forwards))
	for kind, n := range m.proxy.forwards {
		forwards[kind] = n
	}
	px := m.proxy
	m.mu.Unlock()
	refines["fit_seconds_warm"] = m.refineFitWarm.Snapshot().JSON()
	refines["fit_seconds_cold"] = m.refineFitCold.Snapshot().JSON()
	stageDur := make(map[string]any, len(m.stageDuration))
	for _, stage := range pipeline.Stages {
		stageDur[stage] = m.stageDuration[stage].Snapshot().JSON()
	}
	pipelines["stage_duration_seconds"] = stageDur
	clusterJSON := map[string]any{
		"enabled":        cl != nil,
		"forwards":       forwards,
		"forward_errors": px.forwardErrors,
		"redirects":      px.redirects,
		"replica_reads":  px.replicaReads,
	}
	if cl != nil {
		clusterJSON["node"] = cl.node
		clusterJSON["replication"] = cl.stats
	}

	return map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"build": map[string]any{
			"version":    obs.Version,
			"go_version": runtime.Version(),
		},
		"traces": map[string]any{
			"enabled":           traces.Enabled,
			"stored":            traces.Stored,
			"open":              traces.Open,
			"capacity":          traces.Capacity,
			"slow_seconds":      traces.SlowThresholdSeconds,
			"sample_rate":       traces.SampleRate,
			"kept_total":        traces.Kept,
			"sampled_out_total": traces.SampledOut,
			"evicted_total":     traces.Evicted,
		},
		"models":      models,
		"requests":    routes,
		"predictions": predictions,
		"predictor_cache": map[string]int64{
			"hits":      cache.hits,
			"misses":    cache.misses,
			"evictions": cache.evictions,
			"entries":   int64(cache.entries),
			"capacity":  int64(cache.capacity),
		},
		"predict_coalescing": map[string]any{
			"requests_per_batch": m.coalescedCalls.Snapshot().JSON(),
			"points_per_batch":   m.coalescedPoints.Snapshot().JSON(),
		},
		"jobs":      jobs,
		"pipelines": pipelines,
		"refines":   refines,
		"checkpoints": map[string]any{
			"bytes": ckBytes,
		},
		"incidents": incidents,
		"cluster":   clusterJSON,
		"journal": map[string]any{
			"enabled":          jnl.enabled,
			"degraded":         jnl.degraded,
			"appends":          jc.appends,
			"append_errors":    jc.appendErrors,
			"jobs_replayed":    jc.replayed,
			"jobs_recovered":   jc.recovered,
			"jobs_quarantined": jc.quarantined,
			"fsync_seconds":    m.journalFsync.Snapshot().JSON(),
		},
		"fit": map[string]any{
			"duration_seconds": m.fitDuration.Snapshot().JSON(),
			"iterations":       m.fitIterations.Snapshot().JSON(),
			"parallel_workers": m.fitParallel,
		},
		"queue": map[string]any{
			"depth":        queueDepth,
			"wait_seconds": m.queueWait.Snapshot().JSON(),
		},
		"runtime": obs.ReadRuntimeStats().JSON(),
	}
}

// writePrometheus renders the same state as Prometheus text exposition
// (format version 0.0.4) with cumulative le buckets.
func (m *metrics) writePrometheus(w io.Writer, models, queueDepth int, cache cacheStats, jnl journalStatus, traces trace.Stats, cl *clusterExposition) error {
	pw := obs.NewPromWriter(w)

	pw.Meta("rsmd_build_info", "gauge", "Build identity; always 1, labeled with version and Go toolchain.")
	pw.Sample("rsmd_build_info", obs.Labels("version", obs.Version, "go_version", runtime.Version()), 1)
	pw.Meta("rsmd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	pw.Sample("rsmd_uptime_seconds", "", time.Since(m.start).Seconds())
	pw.Meta("rsmd_models", "gauge", "Distinct model names in the registry.")
	pw.Sample("rsmd_models", "", float64(models))

	m.mu.Lock()
	routeNames := make([]string, 0, len(m.routes))
	for route := range m.routes {
		routeNames = append(routeNames, route)
	}
	sort.Strings(routeNames)
	type routeSnap struct {
		route string
		rs    routeStats
		hist  obs.HistogramSnapshot
	}
	routes := make([]routeSnap, 0, len(routeNames))
	for _, route := range routeNames {
		rs := m.routes[route]
		hist := obs.CumulativeSnapshot(latencyBounds, rs.buckets, rs.sumSec)
		if rs.exemplars != nil {
			hist.Exemplars = append([]obs.Exemplar(nil), rs.exemplars...)
		}
		routes = append(routes, routeSnap{
			route: route,
			rs:    routeStats{count: rs.count, errors: rs.errors, sumSec: rs.sumSec},
			hist:  hist,
		})
	}
	modelNames := make([]string, 0, len(m.predictions))
	for name := range m.predictions {
		modelNames = append(modelNames, name)
	}
	sort.Strings(modelNames)
	predictions := make([]int64, len(modelNames))
	for i, name := range modelNames {
		predictions[i] = m.predictions[name]
	}
	jobs := m.jobs
	pipelines := m.pipelines
	refines := m.refines
	refits := m.refits
	ckModels := make([]string, 0, len(m.checkpointBytes))
	for name := range m.checkpointBytes {
		ckModels = append(ckModels, name)
	}
	sort.Strings(ckModels)
	ckBytes := make([]int64, len(ckModels))
	for i, name := range ckModels {
		ckBytes[i] = m.checkpointBytes[name]
	}
	activePipelines, samplesSimulated := m.activePipelines, m.samplesSimulated
	panics, shed := m.panics, m.shed
	jc := m.journal
	forwards := make([]int64, len(forwardKinds))
	for i, kind := range forwardKinds {
		forwards[i] = m.proxy.forwards[kind]
	}
	px := m.proxy
	m.mu.Unlock()

	pw.Meta("rsmd_http_requests_total", "counter", "Requests served, by route.")
	for _, r := range routes {
		pw.Sample("rsmd_http_requests_total", obs.Label("route", r.route), float64(r.rs.count))
	}
	pw.Meta("rsmd_http_request_errors_total", "counter", "Responses with status >= 400, by route.")
	for _, r := range routes {
		pw.Sample("rsmd_http_request_errors_total", obs.Label("route", r.route), float64(r.rs.errors))
	}
	pw.Meta("rsmd_http_request_duration_seconds", "histogram", "Request latency, by route.")
	for _, r := range routes {
		pw.Histogram("rsmd_http_request_duration_seconds", obs.Label("route", r.route), r.hist)
	}

	pw.Meta("rsmd_predictions_total", "counter", "Points predicted, by model.")
	for i, name := range modelNames {
		pw.Sample("rsmd_predictions_total", obs.Label("model", name), float64(predictions[i]))
	}

	pw.Meta("rsmd_predictor_cache_hits_total", "counter", "Compiled-predictor cache hits.")
	pw.Sample("rsmd_predictor_cache_hits_total", "", float64(cache.hits))
	pw.Meta("rsmd_predictor_cache_misses_total", "counter", "Compiled-predictor cache misses (each one compiled a predictor).")
	pw.Sample("rsmd_predictor_cache_misses_total", "", float64(cache.misses))
	pw.Meta("rsmd_predictor_cache_evictions_total", "counter", "Compiled predictors evicted by LRU capacity pressure.")
	pw.Sample("rsmd_predictor_cache_evictions_total", "", float64(cache.evictions))
	pw.Meta("rsmd_predictor_cache_entries", "gauge", "Compiled predictors currently cached.")
	pw.Sample("rsmd_predictor_cache_entries", "", float64(cache.entries))
	pw.Meta("rsmd_predictor_cache_capacity", "gauge", "Compiled-predictor cache capacity (0 = caching disabled).")
	pw.Sample("rsmd_predictor_cache_capacity", "", float64(cache.capacity))

	pw.Meta("rsmd_predict_coalesced_requests", "histogram", "Requests coalesced per executed micro-batch flush.")
	pw.Histogram("rsmd_predict_coalesced_requests", "", m.coalescedCalls.Snapshot())
	pw.Meta("rsmd_predict_coalesced_points", "histogram", "Total points per executed micro-batch flush.")
	pw.Histogram("rsmd_predict_coalesced_points", "", m.coalescedPoints.Snapshot())

	writeJobCounters(pw, "rsmd_jobs_submitted_total", "rsmd_jobs_total", "Fit", jobs)

	writeJobCounters(pw, "rsmd_pipelines_submitted_total", "rsmd_pipelines_total", "Pipeline", pipelines)
	pw.Meta("rsmd_pipelines_active", "gauge", "Pipeline jobs currently running.")
	pw.Sample("rsmd_pipelines_active", "", float64(activePipelines))
	pw.Meta("rsmd_pipeline_samples_total", "counter", "Circuit simulations executed by pipeline sampling stages.")
	pw.Sample("rsmd_pipeline_samples_total", "", float64(samplesSimulated))
	pw.Meta("rsmd_pipeline_stage_duration_seconds", "histogram", "Pipeline stage wall-clock time, by stage.")
	for _, stage := range pipeline.Stages {
		pw.Histogram("rsmd_pipeline_stage_duration_seconds", obs.Label("stage", stage), m.stageDuration[stage].Snapshot())
	}

	writeJobCounters(pw, "rsmd_refines_submitted_total", "rsmd_refine_jobs_total", "Refine", refines)
	pw.Meta("rsmd_refits_total", "counter", "Completed refines by publish-gate outcome: improved published a new version, rejected kept the parent.")
	pw.Sample("rsmd_refits_total", obs.Label("outcome", RefineImproved), float64(refits.improved))
	pw.Sample("rsmd_refits_total", obs.Label("outcome", RefineRejected), float64(refits.rejected))
	pw.Meta("rsmd_refine_fit_seconds", "histogram", "Refine fit wall-clock time, split by warm continuation vs cold refit.")
	pw.Histogram("rsmd_refine_fit_seconds", obs.Label("mode", "warm"), m.refineFitWarm.Snapshot())
	pw.Histogram("rsmd_refine_fit_seconds", obs.Label("mode", "cold"), m.refineFitCold.Snapshot())
	pw.Meta("rsmd_checkpoint_bytes", "gauge", "Serialized size of the latest persisted fit checkpoint, by model.")
	for i, name := range ckModels {
		pw.Sample("rsmd_checkpoint_bytes", obs.Label("model", name), float64(ckBytes[i]))
	}

	pw.Meta("rsmd_journal_enabled", "gauge", "1 when a durable job journal is attached.")
	pw.Sample("rsmd_journal_enabled", "", boolGauge(jnl.enabled))
	pw.Meta("rsmd_journal_degraded", "gauge", "1 while journal appends are failing (async submits shed with 503).")
	pw.Sample("rsmd_journal_degraded", "", boolGauge(jnl.degraded))
	pw.Meta("rsmd_journal_appends_total", "counter", "Job lifecycle records durably appended to the journal.")
	pw.Sample("rsmd_journal_appends_total", "", float64(jc.appends))
	pw.Meta("rsmd_journal_append_errors_total", "counter", "Journal append attempts that failed (disk pressure).")
	pw.Sample("rsmd_journal_append_errors_total", "", float64(jc.appendErrors))
	pw.Meta("rsmd_journal_fsync_seconds", "histogram", "Append+fsync latency of successful journal writes.")
	pw.Histogram("rsmd_journal_fsync_seconds", "", m.journalFsync.Snapshot())
	pw.Meta("rsmd_journal_jobs_replayed_total", "counter", "Jobs reconstructed from the journal at boot.")
	pw.Sample("rsmd_journal_jobs_replayed_total", "", float64(jc.replayed))
	pw.Meta("rsmd_journal_jobs_recovered_total", "counter", "Replayed live jobs re-enqueued to run again.")
	pw.Sample("rsmd_journal_jobs_recovered_total", "", float64(jc.recovered))
	pw.Meta("rsmd_journal_jobs_quarantined_total", "counter", "Replayed jobs retired by the crash-loop guard.")
	pw.Sample("rsmd_journal_jobs_quarantined_total", "", float64(jc.quarantined))

	pw.Meta("rsmd_cluster_enabled", "gauge", "1 when this node is part of a shard ring.")
	pw.Sample("rsmd_cluster_enabled", "", boolGauge(cl != nil))
	pw.Meta("rsmd_cluster_forwards_total", "counter", "Requests proxied to their owning shard, by route kind.")
	for i, kind := range forwardKinds {
		pw.Sample("rsmd_cluster_forwards_total", obs.Label("kind", kind), float64(forwards[i]))
	}
	pw.Meta("rsmd_cluster_forward_errors_total", "counter", "Forwards that failed because the owning shard was down or unreachable.")
	pw.Sample("rsmd_cluster_forward_errors_total", "", float64(px.forwardErrors))
	pw.Meta("rsmd_cluster_redirects_total", "counter", "Job polls redirected to the shard that minted the job ID.")
	pw.Sample("rsmd_cluster_redirects_total", "", float64(px.redirects))
	pw.Meta("rsmd_cluster_replica_reads_total", "counter", "Reads served from a local replica under a satisfied min-version floor.")
	pw.Sample("rsmd_cluster_replica_reads_total", "", float64(px.replicaReads))
	if cl != nil {
		pw.Meta("rsmd_cluster_node_info", "gauge", "Ring identity of this node; always 1.")
		pw.Sample("rsmd_cluster_node_info", obs.Label("node", cl.node), 1)
		pw.Meta("rsmd_cluster_syncs_total", "counter", "Replicator pull rounds completed.")
		pw.Sample("rsmd_cluster_syncs_total", "", float64(cl.stats.Syncs))
		pw.Meta("rsmd_cluster_sync_errors_total", "counter", "Replicator pull rounds that failed against a peer.")
		pw.Sample("rsmd_cluster_sync_errors_total", "", float64(cl.stats.SyncErrors))
		pw.Meta("rsmd_cluster_versions_pulled_total", "counter", "Model versions replicated in from peers.")
		pw.Sample("rsmd_cluster_versions_pulled_total", "", float64(cl.stats.VersionsPulled))
		pw.Meta("rsmd_cluster_checkpoints_pulled_total", "counter", "Fit checkpoints replicated in alongside their model versions.")
		pw.Sample("rsmd_cluster_checkpoints_pulled_total", "", float64(cl.stats.CheckpointsPulled))
		pw.Meta("rsmd_cluster_tombstones_applied_total", "counter", "Peer delete tombstones applied to the local replica set.")
		pw.Sample("rsmd_cluster_tombstones_applied_total", "", float64(cl.stats.TombstonesApplied))
		pw.Meta("rsmd_cluster_peer_up", "gauge", "1 while the peer is dialable (not in failure backoff), by peer.")
		for _, p := range cl.stats.Peers {
			pw.Sample("rsmd_cluster_peer_up", obs.Label("peer", p.Name), boolGauge(p.Healthy))
		}
		pw.Meta("rsmd_cluster_peer_lag_versions", "gauge", "Versions the peer advertises that are still missing locally, by peer.")
		for _, p := range cl.stats.Peers {
			pw.Sample("rsmd_cluster_peer_lag_versions", obs.Label("peer", p.Name), float64(p.LagVersions))
		}
	}

	pw.Meta("rsmd_panics_recovered_total", "counter", "Recovered panics (handlers and fit workers).")
	pw.Sample("rsmd_panics_recovered_total", "", float64(panics))
	pw.Meta("rsmd_requests_shed_total", "counter", "Requests rejected by load shedding.")
	pw.Sample("rsmd_requests_shed_total", "", float64(shed))

	pw.Meta("rsmd_fit_parallel_workers", "gauge", "Effective engine correlation-sweep goroutines per fit job.")
	pw.Sample("rsmd_fit_parallel_workers", "", float64(m.fitParallel))
	pw.Meta("rsmd_fit_duration_seconds", "histogram", "Completed fit job wall-clock time.")
	pw.Histogram("rsmd_fit_duration_seconds", "", m.fitDuration.Snapshot())
	pw.Meta("rsmd_fit_iterations", "histogram", "Final-refit path iterations per completed fit job.")
	pw.Histogram("rsmd_fit_iterations", "", m.fitIterations.Snapshot())

	pw.Meta("rsmd_traces_enabled", "gauge", "1 when the in-memory trace store is active.")
	pw.Sample("rsmd_traces_enabled", "", boolGauge(traces.Enabled))
	pw.Meta("rsmd_traces_stored", "gauge", "Sealed traces currently held in the ring.")
	pw.Sample("rsmd_traces_stored", "", float64(traces.Stored))
	pw.Meta("rsmd_traces_open", "gauge", "Traces currently open (root or holder spans still live).")
	pw.Sample("rsmd_traces_open", "", float64(traces.Open))
	pw.Meta("rsmd_traces_capacity", "gauge", "Trace ring capacity.")
	pw.Sample("rsmd_traces_capacity", "", float64(traces.Capacity))
	pw.Meta("rsmd_traces_kept_total", "counter", "Sealed traces kept by the tail-sampling policy.")
	pw.Sample("rsmd_traces_kept_total", "", float64(traces.Kept))
	pw.Meta("rsmd_traces_sampled_out_total", "counter", "Sealed traces dropped by the sampling coin flip.")
	pw.Sample("rsmd_traces_sampled_out_total", "", float64(traces.SampledOut))
	pw.Meta("rsmd_traces_evicted_total", "counter", "Kept traces later pushed out of the ring by capacity pressure.")
	pw.Sample("rsmd_traces_evicted_total", "", float64(traces.Evicted))

	pw.Meta("rsmd_job_queue_depth", "gauge", "Fit jobs currently pending in the queue.")
	pw.Sample("rsmd_job_queue_depth", "", float64(queueDepth))
	pw.Meta("rsmd_job_queue_wait_seconds", "histogram", "Time jobs sat queued before a worker picked them up.")
	pw.Histogram("rsmd_job_queue_wait_seconds", "", m.queueWait.Snapshot())

	rt := obs.ReadRuntimeStats()
	pw.Meta("rsmd_goroutines", "gauge", "Live goroutines.")
	pw.Sample("rsmd_goroutines", "", float64(rt.Goroutines))
	pw.Meta("rsmd_heap_alloc_bytes", "gauge", "Live heap bytes.")
	pw.Sample("rsmd_heap_alloc_bytes", "", float64(rt.HeapAllocBytes))
	pw.Meta("rsmd_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	pw.Sample("rsmd_heap_sys_bytes", "", float64(rt.HeapSysBytes))
	pw.Meta("rsmd_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	pw.Sample("rsmd_gc_pause_seconds_total", "", rt.GCPauseTotalSeconds)
	pw.Meta("rsmd_gc_cycles_total", "counter", "Completed GC cycles.")
	pw.Sample("rsmd_gc_cycles_total", "", float64(rt.GCCycles))

	return pw.Flush()
}

// boolGauge renders a boolean as a 0/1 Prometheus gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// statusRecorder captures the response status code for instrumentation
// while passing the optional http.Flusher capability through, so streaming
// handlers are not silently broken by the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports flushing; a
// no-op otherwise. Embedding alone would swallow the interface entirely.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// discovers capabilities (flush, deadlines, hijack) through it.
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}
