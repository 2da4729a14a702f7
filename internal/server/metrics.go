package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// latencyBounds are the request-latency bucket upper bounds in seconds;
// an implicit +Inf bucket catches the rest. Chosen to straddle the
// expected range from in-memory predict calls to multi-second fits. They
// live outside the family table because observe bins every request by
// them.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

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
// expvar-style JSON and Prometheus text exposition by GET /metrics. Both
// views render from the families table. All methods are safe for
// concurrent use.
type metrics struct {
	start time.Time
	// fitParallel is the effective engine sweep worker count per fit job
	// (Config.FitParallel after defaults). Set once at server construction,
	// read-only afterwards.
	fitParallel int

	mu sync.Mutex
	tallies

	// Self-locking histograms, kept outside mu so fit workers, the
	// micro-batcher and the journal never contend with request accounting.
	// newMetrics builds each over its family's bounds.
	fitDuration, fitIterations, queueWait *obs.Histogram
	// refineFitWarm/refineFitCold split refine fit times by whether the
	// solver continued warm from the parent's state or refit cold — the
	// observable half of the "warm ≤ 50% of cold" contract.
	refineFitWarm, refineFitCold    *obs.Histogram
	coalescedCalls, coalescedPoints *obs.Histogram
	journalFsync                    *obs.Histogram
	// stageDuration holds one histogram per pipeline stage, in
	// pipeline.Stages order.
	stageDuration []*obs.Histogram
}

// tallies are the mu-guarded counters. A scrape copies them under one
// acquisition of mu.
type tallies struct {
	routes      map[string]*routeStats
	predictions map[string]int64 // model name → points predicted
	// jobs, pipelines and refines are the per-kind job tallies, reached by
	// kind name through the jobKinds table.
	jobs, pipelines, refines jobCounters
	// checkpointBytes is the serialized size of the latest persisted fit
	// checkpoint per model name.
	checkpointBytes map[string]int64
	// forwards counts requests proxied to their owning shard, by route kind.
	forwards map[string]int64
	counts   [numTallies]int64
}

// jobCounters are one job kind's mu-guarded submit and terminal-state
// tallies.
type jobCounters struct{ submitted, completed, failed, canceled, timedOut int64 }

// tally names one of the scalar counters in tallies.counts; add moves it.
type tally int

const (
	panicsRecovered     tally = iota // recovered panics (handlers and job workers)
	requestsShed                     // requests rejected by load shedding
	pipelinesActive                  // pipeline jobs between worker pickup and terminal state
	samplesSimulated                 // circuit simulations run by pipeline sampling stages
	refitsImproved                   // refines the publish gate published
	refitsRejected                   // refines the publish gate turned down
	journalAppends                   // journal records durably appended (write + fsync)
	journalAppendErrors              // journal append attempts that failed (disk pressure)
	jobsReplayed                     // jobs reconstructed from the journal at boot
	jobsRecovered                    // replayed live jobs re-enqueued to run again
	jobsQuarantined                  // replayed jobs retired by the crash-loop guard
	forwardErrors                    // forwards that failed: owning shard down or unreachable
	redirects                        // job polls answered with a 307 to the minting shard
	replicaReads                     // reads served from a replica under a satisfied min-version
	numTallies
)

func newMetrics() *metrics {
	m := &metrics{
		start: time.Now(),
		tallies: tallies{
			routes:          make(map[string]*routeStats),
			predictions:     make(map[string]int64),
			checkpointBytes: make(map[string]int64),
			forwards:        make(map[string]int64),
		},
		stageDuration: make([]*obs.Histogram, len(pipeline.Stages)),
	}
	for _, f := range families {
		if f.hists != nil {
			for _, h := range f.hists(m) {
				*h = obs.NewHistogram(f.bounds...)
			}
		}
	}
	return m
}

// add moves one scalar tally by delta.
func (m *metrics) add(t tally, delta int64) {
	m.mu.Lock()
	m.counts[t] += delta
	m.mu.Unlock()
}

// countForward tallies one request proxied to its owning shard.
func (m *metrics) countForward(kind string) {
	m.mu.Lock()
	m.forwards[kind]++
	m.mu.Unlock()
}

// observeJournalAppend is the journal's OnAppend hook: it tallies the
// outcome and samples the fsync-inclusive latency of successful appends.
func (m *metrics) observeJournalAppend(d time.Duration, err error) {
	if err != nil {
		m.add(journalAppendErrors, 1)
		return
	}
	m.add(journalAppends, 1)
	m.journalFsync.Observe(d.Seconds())
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

// observePipelineStage records one completed pipeline stage: its duration
// into the per-stage histogram, and — for the sampling stage — the
// simulated sample count into the samples counter.
func (m *metrics) observePipelineStage(stage string, seconds float64, samples int) {
	if i := slices.Index(pipeline.Stages, stage); i >= 0 {
		m.stageDuration[i].Observe(seconds)
	}
	if stage == pipeline.StageSample && samples > 0 {
		m.add(samplesSimulated, int64(samples))
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

// scrape is what one /metrics render reads. The handler fills the state
// other components own; collect adds one copy of the mu-guarded tallies
// and the runtime gauges.
type scrape struct {
	models, queueDepth int
	cache              cacheStats
	jnl                journalStatus
	traces             trace.Stats
	node               string         // this node's ring name, when clustered
	cluster            *cluster.Stats // nil on an unclustered node

	m *metrics
	tallies
	runtime obs.RuntimeStats
}

// collect completes s for one render of m.
func (m *metrics) collect(s *scrape) {
	s.m = m
	s.runtime = obs.ReadRuntimeStats()
	m.mu.Lock()
	defer m.mu.Unlock()
	s.tallies = m.tallies
	s.routes = make(map[string]*routeStats, len(m.routes))
	for route, rs := range m.routes {
		c := *rs
		c.buckets = slices.Clone(rs.buckets)
		c.exemplars = slices.Clone(rs.exemplars)
		s.routes[route] = &c
	}
	s.predictions = maps.Clone(m.predictions)
	s.checkpointBytes = maps.Clone(m.checkpointBytes)
	s.forwards = maps.Clone(m.forwards)
}

// Snapshot renders the JSON view: every family with a JSON path, placed
// at that path. Histogram buckets are cumulative, matching their
// Prometheus-style `le` naming.
func (m *metrics) Snapshot(s scrape) map[string]any {
	m.collect(&s)
	root := make(map[string]any)
	for i := range families {
		f := &families[i]
		if f.json == "" || (f.clustered && s.cluster == nil) {
			continue
		}
		path := strings.Split(f.json, ".")
		// The containers above the first per-series segment exist even
		// when the family has no series yet ("predictions": {}).
		k := slices.IndexFunc(path, func(seg string) bool { return strings.Contains(seg, "{}") })
		if k < 0 {
			k = len(path) - 1
		}
		dir := jsonDir(root, path[:k])
		for _, x := range f.read(&s) {
			segs := slices.Clone(path[k:])
			for j := range segs {
				segs[j] = strings.ReplaceAll(segs[j], "{}", x.jsonKey())
			}
			jsonPut(jsonDir(dir, segs[:len(segs)-1]), segs[len(segs)-1], f.jsonValue(x))
		}
	}
	return root
}

// jsonDir walks (creating as needed) the objects along segs.
func jsonDir(dir map[string]any, segs []string) map[string]any {
	for _, seg := range segs {
		next, ok := dir[seg].(map[string]any)
		if !ok {
			next = make(map[string]any)
			dir[seg] = next
		}
		dir = next
	}
	return dir
}

// jsonPut sets dir[key] = v; an object merges into an object already
// there.
func jsonPut(dir map[string]any, key string, v any) {
	if add, ok := v.(map[string]any); ok {
		if have, ok := dir[key].(map[string]any); ok {
			maps.Copy(have, add)
			return
		}
	}
	dir[key] = v
}

// writePrometheus renders the Prometheus view (text format 0.0.4) of
// every family with a type, with cumulative le buckets.
func (m *metrics) writePrometheus(w io.Writer, s scrape) error {
	m.collect(&s)
	pw := obs.NewPromWriter(w)
	for i := range families {
		f := &families[i]
		if f.typ == "" || (f.clustered && s.cluster == nil) {
			continue
		}
		pw.Meta(f.name, f.typ, f.help)
		for _, x := range f.read(&s) {
			kv := make([]string, 0, 2*len(f.labels))
			for j, name := range f.labels {
				kv = append(kv, name, x.labels[j])
			}
			if f.typ == "histogram" {
				pw.Histogram(f.name, obs.Labels(kv...), x.hist)
			} else {
				pw.Sample(f.name, obs.Labels(kv...), promValue(x.value))
			}
		}
	}
	return pw.Flush()
}

// promValue converts a sample's value to the exposition's float.
func promValue(v any) float64 {
	switch v := v.(type) {
	case bool:
		if v {
			return 1
		}
		return 0
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint32:
		return float64(v)
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	panic(fmt.Sprintf("metrics: no Prometheus value for %T", v))
}

// family declares one /metrics family once; Snapshot and writePrometheus
// both render from it.
type family struct {
	// name, typ and help are the Prometheus family; typ "" makes a
	// JSON-only entry.
	name, typ, help string
	// labels names the Prometheus labels; each series carries its values.
	labels []string
	// json is the dot-separated path in the JSON view; "{}" in a segment
	// stands for each series' key. "" makes a Prometheus-only entry.
	json string
	// clustered entries render only on a node in a shard ring.
	clustered bool
	// series reads the family's series from one scrape. Histogram
	// families the table builds leave it nil and set bounds and hists:
	// newMetrics builds each histogram hists points at over bounds, and a
	// render snapshots them in order, labeled by keys.
	series func(s *scrape) []sample
	bounds []float64
	hists  func(m *metrics) []**obs.Histogram
	keys   []string
}

// sample is one series of a family at one scrape.
type sample struct {
	labels []string // label values, in the family's label order
	key    string   // the JSON path's "{}"; defaults to the first label value
	value  any      // counter or gauge value: bool, int, int64, uint32, uint64 or float64
	hist   obs.HistogramSnapshot
	json   any // replaces value or hist in the JSON view when non-nil
}

func (x sample) jsonKey() string {
	if x.key == "" && len(x.labels) > 0 {
		return x.labels[0]
	}
	return x.key
}

// read returns the family's series at scrape s.
func (f *family) read(s *scrape) []sample {
	if f.series != nil {
		return f.series(s)
	}
	hs := f.hists(s.m)
	out := make([]sample, len(hs))
	for i, h := range hs {
		out[i].hist = (*h).Snapshot()
		if f.keys != nil {
			out[i].labels = []string{f.keys[i]}
		}
	}
	return out
}

// jsonValue is a series' value in the JSON view.
func (f *family) jsonValue(x sample) any {
	switch {
	case x.json != nil:
		return x.json
	case f.typ == "histogram":
		return x.hist.JSON()
	}
	return x.value
}

// scalar declares a one-series family whose value read returns.
func scalar(typ, name, help, json string, read func(s *scrape) any) family {
	return family{name: name, typ: typ, help: help, json: json,
		series: func(s *scrape) []sample { return []sample{{value: read(s)}} }}
}

// tallied reads one scalar tally.
func tallied(t tally) func(*scrape) any { return func(s *scrape) any { return s.counts[t] } }

// histogram declares a family of one histogram the table builds: newMetrics
// makes it over bounds at the field hist points to.
func histogram(name, help, json string, bounds []float64, hist func(m *metrics) **obs.Histogram) family {
	return family{name: name, typ: "histogram", help: help, json: json, bounds: bounds,
		hists: func(m *metrics) []**obs.Histogram { return []**obs.Histogram{hist(m)} }}
}

// byName is one series per map entry, labeled by key, in key order.
func byName(m map[string]int64) []sample {
	out := make([]sample, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, sample{labels: []string{k}, value: m[k]})
	}
	return out
}

// perRoute is one series per route, in route order.
func perRoute(s *scrape, fn func(rs *routeStats) sample) []sample {
	out := make([]sample, 0, len(s.routes))
	for _, route := range sortedKeys(s.routes) {
		x := fn(s.routes[route])
		x.labels = []string{route}
		out = append(out, x)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// jobStates is a job kind's terminal-state series: labeled by state,
// keyed in JSON by the counter's name.
func jobStates(c jobCounters) []sample {
	return []sample{
		{labels: []string{JobDone}, key: "completed", value: c.completed},
		{labels: []string{JobFailed}, key: "failed", value: c.failed},
		{labels: []string{JobCanceled}, key: "canceled", value: c.canceled},
		{labels: []string{JobTimedOut}, key: "timed_out", value: c.timedOut},
	}
}

// peerSeries is one series per cluster peer, in ring order.
func peerSeries(s *scrape, value func(p cluster.Status) any) []sample {
	out := make([]sample, len(s.cluster.Peers))
	for i, p := range s.cluster.Peers {
		out[i] = sample{labels: []string{p.Name}, value: value(p)}
	}
	return out
}

// families is the /metrics table, in Prometheus exposition order.
// One-view entries: the JSON view alone carries traces.slow_seconds,
// traces.sample_rate and cluster.replication.peers (whose url, failures
// and last_sync have no series); the Prometheus view alone carries
// rsmd_cluster_peer_up and rsmd_cluster_peer_lag_versions (the JSON peers
// list holds the same values as healthy and lag_versions) and the
// latency exemplars.
var families = []family{
	{name: "rsmd_build_info", typ: "gauge", help: "Build identity; always 1, labeled with version and Go toolchain.", labels: []string{"version", "go_version"}, json: "build",
		series: func(*scrape) []sample {
			return []sample{{labels: []string{obs.Version, runtime.Version()}, value: 1, json: map[string]any{"version": obs.Version, "go_version": runtime.Version()}}}
		}},
	scalar("gauge", "rsmd_uptime_seconds", "Seconds since the daemon started.", "uptime_seconds", func(s *scrape) any { return time.Since(s.m.start).Seconds() }),
	scalar("gauge", "rsmd_models", "Distinct model names in the registry.", "models", func(s *scrape) any { return s.models }),

	{name: "rsmd_http_requests_total", typ: "counter", help: "Requests served, by route.", labels: []string{"route"}, json: "requests.{}.count",
		series: func(s *scrape) []sample {
			return perRoute(s, func(rs *routeStats) sample { return sample{value: rs.count} })
		}},
	{name: "rsmd_http_request_errors_total", typ: "counter", help: "Responses with status >= 400, by route.", labels: []string{"route"}, json: "requests.{}.errors",
		series: func(s *scrape) []sample {
			return perRoute(s, func(rs *routeStats) sample { return sample{value: rs.errors} })
		}},
	{name: "rsmd_http_request_duration_seconds", typ: "histogram", help: "Request latency, by route.", labels: []string{"route"}, json: "requests.{}",
		series: func(s *scrape) []sample {
			return perRoute(s, func(rs *routeStats) sample {
				h := obs.CumulativeSnapshot(latencyBounds, rs.buckets, rs.sumSec)
				h.Exemplars = rs.exemplars
				return sample{hist: h, json: map[string]any{"latency_seconds_sum": rs.sumSec, "latency_buckets": h.JSONBuckets()}}
			})
		}},
	{name: "rsmd_predictions_total", typ: "counter", help: "Points predicted, by model.", labels: []string{"model"}, json: "predictions.{}",
		series: func(s *scrape) []sample { return byName(s.predictions) }},

	scalar("counter", "rsmd_predictor_cache_hits_total", "Compiled-predictor cache hits.", "predictor_cache.hits", func(s *scrape) any { return s.cache.hits }),
	scalar("counter", "rsmd_predictor_cache_misses_total", "Compiled-predictor cache misses (each one compiled a predictor).", "predictor_cache.misses", func(s *scrape) any { return s.cache.misses }),
	scalar("counter", "rsmd_predictor_cache_evictions_total", "Compiled predictors evicted by LRU capacity pressure.", "predictor_cache.evictions", func(s *scrape) any { return s.cache.evictions }),
	scalar("gauge", "rsmd_predictor_cache_entries", "Compiled predictors currently cached.", "predictor_cache.entries", func(s *scrape) any { return int64(s.cache.entries) }),
	scalar("gauge", "rsmd_predictor_cache_capacity", "Compiled-predictor cache capacity (0 = caching disabled).", "predictor_cache.capacity", func(s *scrape) any { return int64(s.cache.capacity) }),

	histogram("rsmd_predict_coalesced_requests", "Requests coalesced per executed micro-batch flush.", "predict_coalescing.requests_per_batch",
		coalescedCallBounds, func(m *metrics) **obs.Histogram { return &m.coalescedCalls }),
	histogram("rsmd_predict_coalesced_points", "Total points per executed micro-batch flush.", "predict_coalescing.points_per_batch",
		coalescedPointBounds, func(m *metrics) **obs.Histogram { return &m.coalescedPoints }),

	scalar("counter", "rsmd_jobs_submitted_total", "Fit jobs accepted into the queue.", "jobs.submitted", func(s *scrape) any { return s.jobs.submitted }),
	{name: "rsmd_jobs_total", typ: "counter", help: "Fit jobs reaching a terminal state, by state.", labels: []string{"state"}, json: "jobs.{}",
		series: func(s *scrape) []sample { return jobStates(s.jobs) }},

	scalar("counter", "rsmd_pipelines_submitted_total", "Pipeline jobs accepted into the queue.", "pipelines.submitted", func(s *scrape) any { return s.pipelines.submitted }),
	{name: "rsmd_pipelines_total", typ: "counter", help: "Pipeline jobs reaching a terminal state, by state.", labels: []string{"state"}, json: "pipelines.{}",
		series: func(s *scrape) []sample { return jobStates(s.pipelines) }},
	scalar("gauge", "rsmd_pipelines_active", "Pipeline jobs currently running.", "pipelines.active", tallied(pipelinesActive)),
	scalar("counter", "rsmd_pipeline_samples_total", "Circuit simulations executed by pipeline sampling stages.", "pipelines.samples_simulated", tallied(samplesSimulated)),
	{name: "rsmd_pipeline_stage_duration_seconds", typ: "histogram", help: "Pipeline stage wall-clock time, by stage.", labels: []string{"stage"}, json: "pipelines.stage_duration_seconds.{}",
		bounds: pipelineStageBounds, keys: pipeline.Stages,
		hists: func(m *metrics) []**obs.Histogram {
			hs := make([]**obs.Histogram, len(m.stageDuration))
			for i := range m.stageDuration {
				hs[i] = &m.stageDuration[i]
			}
			return hs
		}},

	scalar("counter", "rsmd_refines_submitted_total", "Refine jobs accepted into the queue.", "refines.submitted", func(s *scrape) any { return s.refines.submitted }),
	{name: "rsmd_refine_jobs_total", typ: "counter", help: "Refine jobs reaching a terminal state, by state.", labels: []string{"state"}, json: "refines.{}",
		series: func(s *scrape) []sample { return jobStates(s.refines) }},
	{name: "rsmd_refits_total", typ: "counter", help: "Completed refines by publish-gate outcome: improved published a new version, rejected kept the parent.", labels: []string{"outcome"}, json: "refines.outcomes.{}",
		series: func(s *scrape) []sample {
			return []sample{{labels: []string{RefineImproved}, value: s.counts[refitsImproved]}, {labels: []string{RefineRejected}, value: s.counts[refitsRejected]}}
		}},
	{name: "rsmd_refine_fit_seconds", typ: "histogram", help: "Refine fit wall-clock time, split by warm continuation vs cold refit.", labels: []string{"mode"}, json: "refines.fit_seconds_{}",
		bounds: fitSecondsBounds, keys: []string{"warm", "cold"},
		hists: func(m *metrics) []**obs.Histogram { return []**obs.Histogram{&m.refineFitWarm, &m.refineFitCold} }},
	{name: "rsmd_checkpoint_bytes", typ: "gauge", help: "Serialized size of the latest persisted fit checkpoint, by model.", labels: []string{"model"}, json: "checkpoints.bytes.{}",
		series: func(s *scrape) []sample { return byName(s.checkpointBytes) }},

	scalar("gauge", "rsmd_journal_enabled", "1 when a durable job journal is attached.", "journal.enabled", func(s *scrape) any { return s.jnl.enabled }),
	scalar("gauge", "rsmd_journal_degraded", "1 while journal appends are failing (async submits shed with 503).", "journal.degraded", func(s *scrape) any { return s.jnl.degraded }),
	scalar("counter", "rsmd_journal_appends_total", "Job lifecycle records durably appended to the journal.", "journal.appends", tallied(journalAppends)),
	scalar("counter", "rsmd_journal_append_errors_total", "Journal append attempts that failed (disk pressure).", "journal.append_errors", tallied(journalAppendErrors)),
	histogram("rsmd_journal_fsync_seconds", "Append+fsync latency of successful journal writes.", "journal.fsync_seconds",
		journalFsyncBounds, func(m *metrics) **obs.Histogram { return &m.journalFsync }),
	scalar("counter", "rsmd_journal_jobs_replayed_total", "Jobs reconstructed from the journal at boot.", "journal.jobs_replayed", tallied(jobsReplayed)),
	scalar("counter", "rsmd_journal_jobs_recovered_total", "Replayed live jobs re-enqueued to run again.", "journal.jobs_recovered", tallied(jobsRecovered)),
	scalar("counter", "rsmd_journal_jobs_quarantined_total", "Replayed jobs retired by the crash-loop guard.", "journal.jobs_quarantined", tallied(jobsQuarantined)),

	scalar("gauge", "rsmd_cluster_enabled", "1 when this node is part of a shard ring.", "cluster.enabled", func(s *scrape) any { return s.cluster != nil }),
	{name: "rsmd_cluster_forwards_total", typ: "counter", help: "Requests proxied to their owning shard, by route kind.", labels: []string{"kind"}, json: "cluster.forwards.{}",
		series: func(s *scrape) []sample {
			out := make([]sample, len(forwardKinds))
			for i, kind := range forwardKinds {
				out[i] = sample{labels: []string{kind}, value: s.forwards[kind]}
			}
			return out
		}},
	scalar("counter", "rsmd_cluster_forward_errors_total", "Forwards that failed because the owning shard was down or unreachable.", "cluster.forward_errors", tallied(forwardErrors)),
	scalar("counter", "rsmd_cluster_redirects_total", "Job polls redirected to the shard that minted the job ID.", "cluster.redirects", tallied(redirects)),
	scalar("counter", "rsmd_cluster_replica_reads_total", "Reads served from a local replica under a satisfied min-version floor.", "cluster.replica_reads", tallied(replicaReads)),
	{name: "rsmd_cluster_node_info", typ: "gauge", help: "Ring identity of this node; always 1.", labels: []string{"node"}, json: "cluster.node", clustered: true,
		series: func(s *scrape) []sample { return []sample{{labels: []string{s.node}, value: 1, json: s.node}} }},
	clustered(scalar("counter", "rsmd_cluster_syncs_total", "Replicator pull rounds completed.", "cluster.replication.syncs", func(s *scrape) any { return s.cluster.Syncs })),
	clustered(scalar("counter", "rsmd_cluster_sync_errors_total", "Replicator pull rounds that failed against a peer.", "cluster.replication.sync_errors", func(s *scrape) any { return s.cluster.SyncErrors })),
	clustered(scalar("counter", "rsmd_cluster_versions_pulled_total", "Model versions replicated in from peers.", "cluster.replication.versions_pulled", func(s *scrape) any { return s.cluster.VersionsPulled })),
	clustered(scalar("counter", "rsmd_cluster_checkpoints_pulled_total", "Fit checkpoints replicated in alongside their model versions.", "cluster.replication.checkpoints_pulled", func(s *scrape) any { return s.cluster.CheckpointsPulled })),
	clustered(scalar("counter", "rsmd_cluster_tombstones_applied_total", "Peer delete tombstones applied to the local replica set.", "cluster.replication.tombstones_applied", func(s *scrape) any { return s.cluster.TombstonesApplied })),
	{name: "rsmd_cluster_peer_up", typ: "gauge", help: "1 while the peer is dialable (not in failure backoff), by peer.", labels: []string{"peer"}, clustered: true,
		series: func(s *scrape) []sample { return peerSeries(s, func(p cluster.Status) any { return p.Healthy }) }},
	{name: "rsmd_cluster_peer_lag_versions", typ: "gauge", help: "Versions the peer advertises that are still missing locally, by peer.", labels: []string{"peer"}, clustered: true,
		series: func(s *scrape) []sample { return peerSeries(s, func(p cluster.Status) any { return p.LagVersions }) }},
	clustered(scalar("", "", "", "cluster.replication.peers", func(s *scrape) any { return s.cluster.Peers })),

	scalar("counter", "rsmd_panics_recovered_total", "Recovered panics (handlers and fit workers).", "incidents.panics_recovered", tallied(panicsRecovered)),
	scalar("counter", "rsmd_requests_shed_total", "Requests rejected by load shedding.", "incidents.requests_shed", tallied(requestsShed)),

	scalar("gauge", "rsmd_fit_parallel_workers", "Effective engine correlation-sweep goroutines per fit job.", "fit.parallel_workers", func(s *scrape) any { return s.m.fitParallel }),
	histogram("rsmd_fit_duration_seconds", "Completed fit job wall-clock time.", "fit.duration_seconds",
		fitSecondsBounds, func(m *metrics) **obs.Histogram { return &m.fitDuration }),
	histogram("rsmd_fit_iterations", "Final-refit path iterations per completed fit job.", "fit.iterations",
		fitIterationBounds, func(m *metrics) **obs.Histogram { return &m.fitIterations }),

	scalar("gauge", "rsmd_traces_enabled", "1 when the in-memory trace store is active.", "traces.enabled", func(s *scrape) any { return s.traces.Enabled }),
	scalar("gauge", "rsmd_traces_stored", "Sealed traces currently held in the ring.", "traces.stored", func(s *scrape) any { return s.traces.Stored }),
	scalar("gauge", "rsmd_traces_open", "Traces currently open (root or holder spans still live).", "traces.open", func(s *scrape) any { return s.traces.Open }),
	scalar("gauge", "rsmd_traces_capacity", "Trace ring capacity.", "traces.capacity", func(s *scrape) any { return s.traces.Capacity }),
	scalar("", "", "", "traces.slow_seconds", func(s *scrape) any { return s.traces.SlowThresholdSeconds }),
	scalar("", "", "", "traces.sample_rate", func(s *scrape) any { return s.traces.SampleRate }),
	scalar("counter", "rsmd_traces_kept_total", "Sealed traces kept by the tail-sampling policy.", "traces.kept_total", func(s *scrape) any { return s.traces.Kept }),
	scalar("counter", "rsmd_traces_sampled_out_total", "Sealed traces dropped by the sampling coin flip.", "traces.sampled_out_total", func(s *scrape) any { return s.traces.SampledOut }),
	scalar("counter", "rsmd_traces_evicted_total", "Kept traces later pushed out of the ring by capacity pressure.", "traces.evicted_total", func(s *scrape) any { return s.traces.Evicted }),

	scalar("gauge", "rsmd_job_queue_depth", "Jobs of every kind (fit, pipeline, refine) currently pending in the queue.", "queue.depth", func(s *scrape) any { return s.queueDepth }),
	histogram("rsmd_job_queue_wait_seconds", "Time jobs sat queued before a worker picked them up.", "queue.wait_seconds",
		queueWaitBounds, func(m *metrics) **obs.Histogram { return &m.queueWait }),

	scalar("gauge", "rsmd_goroutines", "Live goroutines.", "runtime.goroutines", func(s *scrape) any { return s.runtime.Goroutines }),
	scalar("gauge", "rsmd_heap_alloc_bytes", "Live heap bytes.", "runtime.heap_alloc_bytes", func(s *scrape) any { return s.runtime.HeapAllocBytes }),
	scalar("gauge", "rsmd_heap_sys_bytes", "Heap bytes obtained from the OS.", "runtime.heap_sys_bytes", func(s *scrape) any { return s.runtime.HeapSysBytes }),
	scalar("counter", "rsmd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "runtime.gc_pause_total_seconds", func(s *scrape) any { return s.runtime.GCPauseTotalSeconds }),
	scalar("counter", "rsmd_gc_cycles_total", "Completed GC cycles.", "runtime.gc_cycles", func(s *scrape) any { return s.runtime.GCCycles }),
}

// Histogram bucket upper bounds, one list per layout the table uses. They
// are package variables, not literals in the rows, so their arrays are
// static data: the table is built at init, and a literal there would be
// allocated at run time, which links in compiler-generated array equality
// functions ahead of every package's code and moves the solver kernels.
var (
	// Requests per micro-batch flush, from 1 (a request that rode alone)
	// through heavy fan-in; points per flush, past the default
	// BatchMaxPoints of 4096.
	coalescedCallBounds  = []float64{1, 2, 4, 8, 16, 32, 64}
	coalescedPointBounds = []float64{1, 8, 32, 128, 512, 2048, 8192}
	// Instant parse/space stages through multi-minute sampling campaigns.
	pipelineStageBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300}
	// Fit and refine fit times: sub-second toy fits through the 5m default
	// deadline.
	fitSecondsBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}
	// Final-refit path lengths: λ is rarely above the default max_lambda of
	// 50, but operators can raise it.
	fitIterationBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250}
	// Journal append+fsync: tens of microseconds on a warm NVMe page cache
	// through the hundreds of milliseconds a contended spinning disk takes.
	journalFsyncBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5}
	// Queue wait: instant pickup through the multi-minute backlog a
	// saturated daemon accumulates.
	queueWaitBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300}
)

// clustered marks f as rendered only on a node in a shard ring.
func clustered(f family) family {
	f.clustered = true
	return f
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
