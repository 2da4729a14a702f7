package server

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// generatedIDRE is the shape of a server-assigned request ID.
var generatedIDRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRequestIDAssigned: a request without X-Request-Id gets one assigned
// and echoed on the response.
func TestRequestIDAssigned(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if !generatedIDRE.MatchString(id) {
		t.Fatalf("assigned request ID %q, want 16 hex chars", id)
	}
}

// TestRequestIDHonored: a client-supplied ID is kept and echoed verbatim;
// a malformed one (header-injection shaped) is replaced, not echoed.
func TestRequestIDHonored(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-abc.123:7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-abc.123:7" {
		t.Fatalf("client ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "bad id/with)chars")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !generatedIDRE.MatchString(got) {
		t.Fatalf("malformed client ID %q must be replaced by a generated one, got %q", "bad id/with)chars", got)
	}
}

// TestLogsCarryRequestID: with a debug logger installed, every log line a
// request produces carries its request ID — including error paths.
func TestLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, hs := newTestServer(t, Config{Logger: logger})

	const id = "trace-logline-1"
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/models/nope", nil)
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "request_id="+id) {
			t.Errorf("log line missing request_id=%s: %s", id, line)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("request produced no log lines at debug level")
	}
}

// TestJobCarriesRequestIDAndTimeline: a fit job inherits the submitting
// request's ID and reports a non-empty per-iteration solver timeline with
// fold and final-refit stages.
func TestJobCarriesRequestIDAndTimeline(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})

	const id = "trace-fitjob-1"
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/fit", strings.NewReader(chaosFitBody("obsjob")))
	req.Header.Set(obs.RequestIDHeader, id)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	jobID := decode[FitResponse](t, resp).JobID

	st := waitTerminal(t, hs.URL, jobID, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	if st.RequestID != id {
		t.Fatalf("job request_id %q, want %q", st.RequestID, id)
	}
	if len(st.Events) == 0 {
		t.Fatal("completed job has an empty event timeline")
	}
	stages := map[string]bool{}
	for i, ev := range st.Events {
		stages[ev.Stage] = true
		if ev.Iter < 1 {
			t.Errorf("event %d has iter %d, want ≥ 1", i, ev.Iter)
		}
		if ev.Active < 1 {
			t.Errorf("event %d has active %d, want ≥ 1", i, ev.Active)
		}
		if ev.Residual < 0 {
			t.Errorf("event %d has negative residual %g", i, ev.Residual)
		}
		if ev.ElapsedSeconds < 0 {
			t.Errorf("event %d has negative elapsed %g", i, ev.ElapsedSeconds)
		}
	}
	if !stages["final"] {
		t.Fatalf("timeline has no final-refit events (stages: %v)", stages)
	}
	if !stages["cv-fold-0"] {
		t.Fatalf("timeline has no fold-0 events (stages: %v)", stages)
	}
}

// TestMetricsPrometheusExposition: the Prometheus view must be selected by
// both the format parameter and Accept negotiation, carry the exposition
// content type, validate cleanly, and reflect the traffic driven through
// it — an upload, predictions, a fit and a refine of the fitted model —
// family by family and sample by sample. The same traffic then closes the
// tracing read side: the fit-histogram exemplar, the trace list and the
// job's SSE replay.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	uploadModel(t, hs.URL, "lin", 3)
	post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,0,0]]}`).Body.Close()
	jobID := submitChaosFit(t, hs.URL, "obsprom")
	fit := waitTerminal(t, hs.URL, jobID, 30*time.Second)
	if fit.State != JobDone {
		t.Fatalf("fit state %s (%s), want done", fit.State, fit.Error)
	}
	if len(fit.Events) == 0 {
		t.Fatal("completed fit job has no telemetry events")
	}
	resp := post(t, hs.URL+"/v1/models/obsprom/predict", `{"points":[[0,0],[0.5,-0.5]]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: HTTP %d", resp.StatusCode)
	}
	// A refine populates the incremental-refit families: refine job
	// counters, the publish-gate outcome, the warm/cold fit histogram and
	// the per-model checkpoint size gauge.
	refID := submitRefineReq(t, hs.URL, "obsprom",
		[][]float64{{0.4, 0.1}, {-0.2, 0.3}, {0.6, -0.1}, {-0.4, -0.3}}, []float64{2.5, 1.5, 3.5, 0.5})
	refine := waitTerminal(t, hs.URL, refID, 30*time.Second)
	if refine.State != JobDone || refine.Refine == nil || refine.Refine.Outcome == "" {
		t.Fatalf("refine state %s (%s), want done with an outcome", refine.State, refine.Error)
	}

	fetch := func(url string, accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := fetch(hs.URL+"/metrics?format=prometheus", "")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text exposition 0.0.4", ctype)
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, family := range []string{
		"rsmd_uptime_seconds", "rsmd_http_requests_total",
		"rsmd_http_request_duration_seconds_bucket", "rsmd_predictions_total",
		"rsmd_jobs_total", "rsmd_fit_duration_seconds_bucket", "rsmd_fit_iterations_bucket",
		"rsmd_job_queue_depth", "rsmd_job_queue_wait_seconds_bucket",
		"rsmd_goroutines", "rsmd_heap_alloc_bytes", "rsmd_gc_cycles_total", "rsmd_gc_pause_seconds_total",
		"rsmd_refines_submitted_total", "rsmd_refits_total",
		"rsmd_refine_fit_seconds_bucket", "rsmd_checkpoint_bytes",
		"rsmd_cluster_enabled", "rsmd_cluster_forwards_total",
		"rsmd_cluster_forward_errors_total", "rsmd_cluster_redirects_total",
		"rsmd_cluster_replica_reads_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	for _, pat := range []string{
		`rsmd_cluster_enabled 0`,
		`rsmd_cluster_forwards_total\{kind="predict"\} 0`,
		`rsmd_jobs_total\{state="done"\} 1`,
		`rsmd_fit_duration_seconds_count [1-9]`,
		`rsmd_job_queue_wait_seconds_count [1-9]`,
		`rsmd_predictions_total\{model="obsprom"\} 2`,
		`rsmd_build_info\{[^}]*version="[^"]+"[^}]*\} 1`,
		`rsmd_traces_kept_total [1-9]`,
		`rsmd_refine_jobs_total\{state="done"\} 1`,
		`rsmd_refits_total\{outcome="(improved|rejected)"\} 1`,
		`rsmd_refine_fit_seconds_count\{mode="warm"\} 1`,
		`rsmd_checkpoint_bytes\{model="obsprom"\} [1-9]`,
	} {
		if !regexp.MustCompile(pat).MatchString(body) {
			t.Errorf("exposition does not reflect the driven traffic: no match for %s", pat)
		}
	}

	// The exemplar loop: fit-histogram bucket → trace_id → stored trace.
	// The histogram is fed by the fit and the refine, so it may point at
	// either. (The fit trace's depth is TestFitJobTraceDepth's.)
	if m := regexp.MustCompile(`rsmd_fit_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]+)"\}`).FindStringSubmatch(body); m == nil {
		t.Error("no exemplar on rsmd_fit_duration_seconds_bucket")
	} else if tr := getJSON[TraceResponse](t, hs.URL+"/v1/traces/"+m[1], http.StatusOK); tr.TraceID != fit.TraceID && tr.TraceID != refine.TraceID {
		t.Errorf("exemplar resolves to trace %s, want fit %s or refine %s", tr.TraceID, fit.TraceID, refine.TraceID)
	}
	// The trace list holds the job trace (pinned, so sampling never drops it).
	listed := false
	for _, s := range getJSON[TraceListResponse](t, hs.URL+"/v1/traces", http.StatusOK).Traces {
		listed = listed || s.TraceID == fit.TraceID
	}
	if !listed {
		t.Errorf("fit trace %s missing from /v1/traces", fit.TraceID)
	}
	// The SSE replay of the terminal job ends in its done state.
	sse, ctype := fetch(hs.URL+"/v1/jobs/"+jobID+"/events?stream=1", "")
	if ctype != "text/event-stream" || !strings.Contains(sse, `"state":"done"`) {
		t.Errorf("SSE replay (content type %q) carries no terminal done event:\n%s", ctype, sse)
	}

	// Accept negotiation: a Prometheus scraper's text/plain preference picks
	// the exposition, an explicit JSON preference keeps the JSON tree.
	body, _ = fetch(hs.URL+"/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("Accept-negotiated exposition invalid: %v", err)
	}
	body, ctype = fetch(hs.URL+"/metrics", "application/json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("JSON view content type %q", ctype)
	}
	if !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("JSON view body does not look like JSON: %.80s", body)
	}
}

// TestMetricsJSONBucketsCumulative is the regression test for the
// non-cumulative le_* bucket bug: the JSON view must render each latency
// bucket as the count of observations ≤ its bound, with le_inf equal to the
// route's total count.
func TestMetricsJSONBucketsCumulative(t *testing.T) {
	m := newMetrics()
	// Straddle several bounds: 0.0005 (≤0.001), 0.003 (≤0.005), 0.05 (≤0.1),
	// 20 (+Inf only).
	for _, sec := range []float64{0.0005, 0.003, 0.05, 20} {
		m.observe("GET /x", 200, time.Duration(sec*float64(time.Second)), "")
	}
	snap := m.Snapshot(0, 0, cacheStats{}, journalStatus{}, trace.Stats{}, nil)
	route := snap["requests"].(map[string]any)["GET /x"].(map[string]any)
	buckets := route["latency_buckets"].(map[string]int64)
	if buckets["le_0.001"] != 1 || buckets["le_0.005"] != 2 || buckets["le_0.1"] != 3 {
		t.Fatalf("buckets not cumulative: %v", buckets)
	}
	if last := buckets["le_inf"]; last != 4 {
		t.Fatalf("le_inf = %d, want total count 4", last)
	}
	prev := int64(0)
	for _, bound := range []string{"le_0.001", "le_0.005", "le_0.025", "le_0.1", "le_0.5", "le_2.5", "le_10", "le_inf"} {
		v, ok := buckets[bound]
		if !ok {
			t.Fatalf("missing bucket %s in %v", bound, buckets)
		}
		if v < prev {
			t.Fatalf("bucket %s = %d shrank below %d", bound, v, prev)
		}
		prev = v
	}
}

// TestMetricsJSONQueueAndRuntimeSections: the JSON tree must expose the
// queue depth/wait and runtime gauges alongside the original counters.
func TestMetricsJSONQueueAndRuntimeSections(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[map[string]any](t, resp)
	queue, ok := snap["queue"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing queue section: %v", snap["queue"])
	}
	if _, ok := queue["depth"].(float64); !ok {
		t.Fatalf("queue.depth missing: %v", queue)
	}
	if _, ok := queue["wait_seconds"].(map[string]any); !ok {
		t.Fatalf("queue.wait_seconds missing: %v", queue)
	}
	rt, ok := snap["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing runtime section: %v", snap["runtime"])
	}
	if g, ok := rt["goroutines"].(float64); !ok || g < 1 {
		t.Fatalf("runtime.goroutines = %v, want ≥ 1", rt["goroutines"])
	}
	if _, ok := snap["fit"].(map[string]any); !ok {
		t.Fatalf("metrics missing fit section: %v", snap["fit"])
	}
}

// flushProbe is a ResponseWriter that records Flush calls.
type flushProbe struct {
	http.ResponseWriter
	flushed bool
}

func (f *flushProbe) Flush() { f.flushed = true }

// TestStatusRecorderFlusherPassthrough: the middleware's statusRecorder must
// forward Flush to a flushable underlying writer — both via the http.Flusher
// assertion handlers use and via http.ResponseController's Unwrap walk — and
// stay a silent no-op over a non-flushable one.
func TestStatusRecorderFlusherPassthrough(t *testing.T) {
	probe := &flushProbe{ResponseWriter: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: probe, status: http.StatusOK}

	var w http.ResponseWriter = rec
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not expose http.Flusher")
	}
	f.Flush()
	if !probe.flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}

	probe.flushed = false
	rc := http.NewResponseController(rec)
	if err := rc.Flush(); err != nil {
		t.Fatalf("ResponseController.Flush: %v", err)
	}
	if !probe.flushed {
		t.Fatal("ResponseController did not reach the underlying Flusher through Unwrap")
	}

	// A non-flushable underlying writer: Flush must be a no-op, not a panic.
	bare := &statusRecorder{ResponseWriter: nonFlushableWriter{httptest.NewRecorder()}}
	bare.Flush()
}

// nonFlushableWriter hides httptest.ResponseRecorder's Flush method: only
// the embedded interface's three methods are promoted.
type nonFlushableWriter struct{ http.ResponseWriter }

// TestFlushReachesHTTPClient drives a real streaming response through the
// full middleware chain: if trace's statusRecorder swallowed http.Flusher,
// the two chunks would arrive only at request end.
func TestFlushReachesHTTPClient(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.trace("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("handler behind trace middleware cannot flush")
			return
		}
		io.WriteString(w, "chunk-1\n")
		f.Flush()
		io.WriteString(w, "chunk-2\n")
	})
	hs := httptest.NewServer(h)
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != "chunk-1\n" {
		t.Fatalf("first chunk %q (%v)", line, err)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("transfer encoding %v, want chunked (flush mid-body)", resp.TransferEncoding)
	}
}
