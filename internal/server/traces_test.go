package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// getJSON drives a GET and decodes the body into T, asserting the status.
func getJSON[T any](t *testing.T, url string, wantStatus int) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: HTTP %d (%s), want %d", url, resp.StatusCode, body, wantStatus)
	}
	return decode[T](t, resp)
}

// scrapeText fetches the Prometheus text exposition.
func scrapeText(t *testing.T, baseURL string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestTracingDisabled(t *testing.T) {
	_, hs := newTestServer(t, Config{TraceStoreSize: -1})
	for _, path := range []string{"/v1/traces", "/v1/traces/deadbeef", "/v1/jobs/job-000001/trace"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	// The JSON metrics tree must report tracing off, not lie with zeros.
	metrics := getJSON[map[string]any](t, hs.URL+"/metrics", http.StatusOK)
	traces, ok := metrics["traces"].(map[string]any)
	if !ok {
		t.Fatalf("metrics tree has no traces block: %v", metrics["traces"])
	}
	if enabled, _ := traces["enabled"].(bool); enabled {
		t.Error("metrics traces.enabled = true with tracing disabled")
	}
}

func TestHTTPRequestTraced(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBatch: 10})
	uploadModel(t, hs.URL, "lin", 3)
	resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,0,0]]}`)
	resp.Body.Close()

	list := getJSON[TraceListResponse](t, hs.URL+"/v1/traces?route=/predict", http.StatusOK)
	if len(list.Traces) != 1 {
		t.Fatalf("predict traces = %d, want 1 (all: %+v)", len(list.Traces),
			getJSON[TraceListResponse](t, hs.URL+"/v1/traces", http.StatusOK).Traces)
	}
	tr := list.Traces[0]
	if tr.Name != "POST /v1/models/{name}/predict" || tr.Status != "ok" || !tr.Complete {
		t.Errorf("predict trace %+v", tr)
	}
	full := getJSON[TraceResponse](t, hs.URL+"/v1/traces/"+tr.TraceID, http.StatusOK)
	if full.Root == nil || full.Root.Name != "POST /v1/models/{name}/predict" {
		t.Fatalf("trace root %+v", full.Root)
	}
	if full.Root.Attrs["status"] != float64(200) {
		t.Errorf("root attrs %v, want status=200", full.Root.Attrs)
	}
}

func TestTraceListFilterValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, q := range []string{"limit=0", "limit=x", "min_duration=nope"} {
		resp, err := http.Get(hs.URL + "/v1/traces?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces?%s: HTTP %d, want 400", q, resp.StatusCode)
		}
	}
	// min_duration accepts both Go durations and bare seconds.
	for _, q := range []string{"min_duration=250ms", "min_duration=0.25"} {
		resp, err := http.Get(hs.URL + "/v1/traces?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/traces?%s: HTTP %d, want 200", q, resp.StatusCode)
		}
	}
}

// TestFitJobTraceDepth: an async fit job's trace nests request → job →
// fit → CV folds, at least four levels deep, reachable by job ID.
func TestFitJobTraceDepth(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitChaosFit(t, hs.URL, "traced")
	st := waitTerminal(t, hs.URL, id, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("fit job state %s (%q)", st.State, st.Error)
	}
	if st.TraceID == "" {
		t.Fatal("done job carries no trace_id")
	}

	full := getJSON[TraceResponse](t, hs.URL+"/v1/jobs/"+id+"/trace", http.StatusOK)
	if full.TraceID != st.TraceID {
		t.Errorf("job trace id %s, status trace id %s", full.TraceID, st.TraceID)
	}
	if !full.Complete {
		t.Error("terminal job's trace is not sealed")
	}
	if full.Depth < 4 {
		t.Fatalf("fit job trace depth %d, want ≥ 4:\n%s", full.Depth, renderTree(full.Root, ""))
	}
	for _, name := range []string{"POST /v1/fit", "job", "fit"} {
		if !treeContains(full.Root, name) {
			t.Errorf("trace tree missing span %q:\n%s", name, renderTree(full.Root, ""))
		}
	}
}

// TestFitJobTracePublishSpan: a fit job's publish (registry write and
// checkpoint) is its own span under the fit work span, and the final CV
// stage span has ended before it starts — the final refit's span no
// longer covers the publication.
func TestFitJobTracePublishSpan(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitChaosFit(t, hs.URL, "published")
	if st := waitTerminal(t, hs.URL, id, 30*time.Second); st.State != JobDone {
		t.Fatalf("fit job state %s (%q)", st.State, st.Error)
	}
	full := getJSON[TraceResponse](t, hs.URL+"/v1/jobs/"+id+"/trace", http.StatusOK)
	fit := findSpan(full.Root, "fit")
	if fit == nil {
		t.Fatalf("no fit span:\n%s", renderTree(full.Root, ""))
	}
	var final, publish *SpanNode
	for _, c := range fit.Children {
		switch c.Name {
		case "final":
			final = c
		case "publish":
			publish = c
		}
	}
	if final == nil || publish == nil {
		t.Fatalf("fit span lacks a final or publish child:\n%s", renderTree(full.Root, ""))
	}
	// Durations travel as float seconds; a microsecond absorbs the rounding.
	finalEnd := final.Start.Add(time.Duration(final.DurationSeconds * float64(time.Second)))
	if finalEnd.After(publish.Start.Add(time.Microsecond)) {
		t.Errorf("final span ends at %s, after publish starts at %s", finalEnd, publish.Start)
	}
}

func findSpan(n *SpanNode, name string) *SpanNode {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestPipelineJobTraceDepth is the tracing acceptance test: the committed
// rc_lowpass pipeline yields a trace nesting request → job → stage →
// solver trial → CV folds — at least four levels.
func TestPipelineJobTraceDepth(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitPipeline(t, hs.URL, pipelineBody(t, "traced-pipe", "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
	st := waitPipelineTerminal(t, hs.URL, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("pipeline state %s (%q)", st.State, st.Error)
	}

	full := getJSON[TraceResponse](t, hs.URL+"/v1/jobs/"+id+"/trace", http.StatusOK)
	if full.Depth < 4 {
		t.Fatalf("pipeline trace depth %d, want ≥ 4:\n%s", full.Depth, renderTree(full.Root, ""))
	}
	for _, name := range []string{"job", "stage.parse", "stage.fit", "stage.publish"} {
		if !treeContains(full.Root, name) {
			t.Errorf("pipeline trace missing span %q:\n%s", name, renderTree(full.Root, ""))
		}
	}
	// The pinned job trace also appears in the list endpoint.
	list := getJSON[TraceListResponse](t, hs.URL+"/v1/traces?route=/v1/pipelines", http.StatusOK)
	var found bool
	for _, tr := range list.Traces {
		found = found || tr.TraceID == full.TraceID
	}
	if !found {
		t.Errorf("pipeline trace %s not in /v1/traces", full.TraceID)
	}
}

func treeContains(n *SpanNode, name string) bool {
	if n == nil {
		return false
	}
	if n.Name == name {
		return true
	}
	for _, c := range n.Children {
		if treeContains(c, name) {
			return true
		}
	}
	return false
}

func renderTree(n *SpanNode, indent string) string {
	if n == nil {
		return indent + "(nil)"
	}
	out := indent + n.Name + " [" + n.Status + "]\n"
	for _, c := range n.Children {
		out += renderTree(c, indent+"  ")
	}
	return out
}

// TestJobEventsSnapshot: the non-streaming events endpoint returns the
// job's full timeline — lifecycle states plus solver telemetry.
func TestJobEventsSnapshot(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitChaosFit(t, hs.URL, "events")
	waitTerminal(t, hs.URL, id, 30*time.Second)

	list := getJSON[JobEventList](t, hs.URL+"/v1/jobs/"+id+"/events", http.StatusOK)
	if list.JobID != id || list.State != JobDone {
		t.Fatalf("event list header %+v", list)
	}
	var states []string
	fits := 0
	lastSeq := -1
	for _, ev := range list.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case JobEventState:
			states = append(states, ev.State)
		case JobEventFit:
			fits++
			if ev.Fit == nil {
				t.Fatal("fit event without payload")
			}
		}
	}
	want := []string{JobPending, JobRunning, JobDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle states %v, want %v", states, want)
	}
	if fits == 0 {
		t.Error("timeline carries no solver telemetry events")
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestJobEventsStream tails a live fit job over SSE: events arrive framed
// as id/event/data records while the job runs, and the stream closes on
// the terminal transition.
func TestJobEventsStream(t *testing.T) {
	armFaults(t, "server.fit=delay:200ms")
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitChaosFit(t, hs.URL, "sse")

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	var states []string
	var sawFit bool
	sc := bufio.NewScanner(resp.Body)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "" && data.Len() > 0:
			var ev JobEvent
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", data.String(), err)
			}
			data.Reset()
			switch ev.Type {
			case JobEventState:
				states = append(states, ev.State)
			case JobEventFit:
				sawFit = true
			}
		}
	}
	// The server closes the stream after the terminal event; the scanner
	// ending without a terminal state means the stream broke early.
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(states) == 0 || states[len(states)-1] != JobDone {
		t.Fatalf("streamed states %v, want trailing done", states)
	}
	if !sawFit {
		t.Error("stream carried no solver telemetry")
	}
}

// TestFitExemplarResolvesToStoredTrace closes the metrics → trace loop:
// the fit-duration histogram carries an exemplar whose trace_id is
// fetchable from /v1/traces.
func TestFitExemplarResolvesToStoredTrace(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	id := submitChaosFit(t, hs.URL, "exemplar")
	st := waitTerminal(t, hs.URL, id, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("fit state %s", st.State)
	}

	body := scrapeText(t, hs.URL)
	re := regexp.MustCompile(`(?m)^rsmd_fit_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]+)"\} ([0-9.eE+-]+) ([0-9.]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no exemplar on rsmd_fit_duration_seconds_bucket:\n%s", grepLines(body, "rsmd_fit_duration_seconds_bucket"))
	}
	traceID := m[1]
	if traceID != st.TraceID {
		t.Errorf("exemplar trace_id %s, job trace_id %s", traceID, st.TraceID)
	}
	if v, err := strconv.ParseFloat(m[2], 64); err != nil || v < 0 {
		t.Errorf("exemplar value %q: %v", m[2], err)
	}
	if ts, err := strconv.ParseFloat(m[3], 64); err != nil || time.Since(time.Unix(int64(ts), 0)) > time.Hour {
		t.Errorf("exemplar timestamp %q not recent: %v", m[3], err)
	}

	full := getJSON[TraceResponse](t, hs.URL+"/v1/traces/"+traceID, http.StatusOK)
	if !treeContains(full.Root, "fit") {
		t.Errorf("exemplar trace %s has no fit span:\n%s", traceID, renderTree(full.Root, ""))
	}

	// Request-latency buckets carry exemplars too.
	if !regexp.MustCompile(`rsmd_http_request_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="[0-9a-f]+"\}`).MatchString(body) {
		t.Error("no exemplar on any rsmd_http_request_duration_seconds_bucket line")
	}
	// And rsmd_build_info is present with a version label.
	if !regexp.MustCompile(`rsmd_build_info\{[^}]*version="[^"]+"[^}]*\} 1`).MatchString(body) {
		t.Errorf("rsmd_build_info missing or malformed:\n%s", grepLines(body, "rsmd_build_info"))
	}
}

func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return "(no matching lines)"
	}
	return strings.Join(out, "\n")
}
