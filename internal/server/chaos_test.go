package server

// Chaos suite (make chaos): each test arms a fault through the
// internal/faultinject harness, drives the daemon into it over real HTTP,
// and verifies the blast radius stayed contained — the daemon keeps
// answering /healthz, keeps predicting, and the incident shows up in
// /metrics. These tests are the executable form of the package's
// robustness contract and run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/rng"
)

// armFaults resets the harness, arms spec, and schedules cleanup so no
// fault leaks into another test.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure(spec); err != nil {
		t.Fatalf("arm %q: %v", spec, err)
	}
}

// chaosFitBody is a small well-posed fit request over 2 variables.
func chaosFitBody(name string) string {
	return fmt.Sprintf(`{"name":%q,"folds":2,"max_lambda":3,
		"points":[[0.1,0.2],[0.3,-0.4],[-0.5,0.6],[0.7,0.8],[0.2,-0.6],[-0.3,0.5]],
		"values":[1,2,3,4,5,6]}`, name)
}

// submitChaosFit enqueues a fit and returns the job id.
func submitChaosFit(t *testing.T, baseURL, name string) string {
	t.Helper()
	resp := post(t, baseURL+"/v1/fit", chaosFitBody(name))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	return decode[FitResponse](t, resp).JobID
}

// getJobStatus polls one job over HTTP.
func getJobStatus(t *testing.T, baseURL, id string) *JobStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s: HTTP %d", id, resp.StatusCode)
	}
	st := decode[JobStatus](t, resp)
	return &st
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, baseURL, id string, budget time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		st := getJobStatus(t, baseURL, id)
		if terminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRunning polls until the worker has picked the job up.
func waitRunning(t *testing.T, baseURL, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJobStatus(t, baseURL, id)
		if st.State != JobPending {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left pending", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertHealthy fails unless /healthz answers 200 — the post-incident
// liveness check every chaos test ends with.
func assertHealthy(t *testing.T, baseURL string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatalf("daemon unreachable after fault: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz HTTP %d after fault, want 200", resp.StatusCode)
	}
}

// assertPredicts fails unless the named uploaded model (dim 3, f = 2y0−3y1)
// still evaluates correctly.
func assertPredicts(t *testing.T, baseURL, name string) {
	t.Helper()
	resp := post(t, baseURL+"/v1/models/"+name+"/predict", `{"points":[[1,1,0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after fault: HTTP %d", resp.StatusCode)
	}
	pr := decode[PredictResponse](t, resp)
	if len(pr.Values) != 1 || pr.Values[0] != -1 {
		t.Fatalf("predict after fault: values %v, want [-1]", pr.Values)
	}
}

// metricInt digs an integer counter out of the /metrics tree.
func metricInt(t *testing.T, baseURL string, path ...string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	node := any(decode[map[string]any](t, resp))
	for _, key := range path {
		m, ok := node.(map[string]any)
		if !ok {
			t.Fatalf("metrics path %v: %T is not an object", path, node)
		}
		if node, ok = m[key]; !ok {
			t.Fatalf("metrics path %v: missing %q", path, key)
		}
	}
	f, ok := node.(float64)
	if !ok {
		t.Fatalf("metrics path %v: %T is not a number", path, node)
	}
	return int64(f)
}

// cancelJob drives DELETE /v1/jobs/{id} and returns the response.
func cancelJob(t *testing.T, baseURL, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// chaosKind is one job kind as the worker chaos tests drive it. Every kind
// runs on the same worker scaffolding, so an injected panic, stall or
// cancel must land the same way for each.
type chaosKind struct {
	kind    string // job kind; also the subtest name
	point   string // the worker's fault point, fired before the job body
	counter string // the kind's terminal-state group in /metrics
	// cap points at the kind's server-wide deadline in cfg.
	cap func(cfg *Config) *time.Duration
	// prepare readies the server for a job against name (refine needs a
	// fitted parent with a checkpoint); nil when there is nothing to do.
	prepare func(t *testing.T, baseURL, name string)
	// submit enqueues one job against name and returns its id.
	submit func(t *testing.T, baseURL, name string) string
}

var chaosKinds = []chaosKind{
	{
		kind: JobKindFit, point: "server.fit", counter: "jobs",
		cap:    func(cfg *Config) *time.Duration { return &cfg.FitTimeout },
		submit: submitChaosFit,
	},
	{
		kind: JobKindPipeline, point: "server.pipeline", counter: "pipelines",
		cap: func(cfg *Config) *time.Duration { return &cfg.PipelineTimeout },
		submit: func(t *testing.T, baseURL, name string) string {
			return submitPipeline(t, baseURL, pipelineBody(t, name, "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
		},
	},
	{
		kind: JobKindRefine, point: "server.refine", counter: "refines",
		cap: func(cfg *Config) *time.Duration { return &cfg.FitTimeout },
		prepare: func(t *testing.T, baseURL, name string) {
			pts, vals := refineDataset(rng.New(5), 24, 0.1)
			submitFitWait(t, baseURL, name, pts, vals)
		},
		submit: func(t *testing.T, baseURL, name string) string {
			pts, vals := refineDataset(rng.New(6), 12, 0.1)
			return submitRefineReq(t, baseURL, name, pts, vals)
		},
	},
}

// setup runs the kind's prepare step with the fault harness disarmed, so a
// fault armed afterwards can never fire on the setup fit.
func (k chaosKind) setup(t *testing.T, baseURL, name string) {
	t.Helper()
	faultinject.Reset()
	if k.prepare != nil {
		k.prepare(t, baseURL, name)
	}
}

// TestChaosFitPanicIsolated injects a panic into the worker of each job
// kind: the job must fail with the incident recorded while the daemon keeps
// serving, and the next job of that kind (fault exhausted) must succeed.
func TestChaosFitPanicIsolated(t *testing.T) {
	for _, k := range chaosKinds {
		t.Run(k.kind, func(t *testing.T) {
			_, hs := newTestServer(t, Config{FitWorkers: 1})
			k.setup(t, hs.URL, "chaosfit")
			armFaults(t, k.point+"=panic#1")
			uploadModel(t, hs.URL, "lin", 3)

			id := k.submit(t, hs.URL, "chaosfit")
			st := waitTerminal(t, hs.URL, id, 10*time.Second)
			if st.State != JobFailed || !strings.Contains(st.Error, "panicked") {
				t.Fatalf("state %s error %q, want failed with panic message", st.State, st.Error)
			}
			if want := "internal: " + k.kind + " panicked: "; !strings.HasPrefix(st.Error, want) {
				t.Fatalf("error %q, want prefix %q", st.Error, want)
			}

			assertHealthy(t, hs.URL)
			assertPredicts(t, hs.URL, "lin")
			if n := metricInt(t, hs.URL, "incidents", "panics_recovered"); n < 1 {
				t.Fatalf("panics_recovered = %d, want ≥ 1", n)
			}
			if n := metricInt(t, hs.URL, k.counter, "failed"); n != 1 {
				t.Fatalf("%s.failed = %d, want 1", k.counter, n)
			}

			// The worker survived the panic: it must pick up and complete this one.
			id2 := k.submit(t, hs.URL, "chaosfit")
			if st2 := waitTerminal(t, hs.URL, id2, 30*time.Second); st2.State != JobDone {
				t.Fatalf("post-panic %s state %s (%s), want done", k.kind, st2.State, st2.Error)
			}
		})
	}
}

// TestChaosPredictPanicIsolated injects a panic into the predict handler:
// the request gets a 500 (counted against the route), not a dead daemon.
func TestChaosPredictPanicIsolated(t *testing.T) {
	armFaults(t, "server.predict=panic#1")
	_, hs := newTestServer(t, Config{})
	uploadModel(t, hs.URL, "lin", 3)

	resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,1,0]]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500 from injected panic", resp.StatusCode)
	}
	if e := decode[ErrorResponse](t, resp); !strings.Contains(e.Error, "panicked") {
		t.Fatalf("error body %q, want panic incident message", e.Error)
	}

	assertHealthy(t, hs.URL)
	assertPredicts(t, hs.URL, "lin")
	if n := metricInt(t, hs.URL, "incidents", "panics_recovered"); n != 1 {
		t.Fatalf("panics_recovered = %d, want 1", n)
	}
	if n := metricInt(t, hs.URL, "requests", "POST /v1/models/{name}/predict", "errors"); n < 1 {
		t.Fatalf("predict route errors = %d, want the recovered 500 counted", n)
	}
}

// TestChaosRegistryWriteFailure makes the first persistence attempt die
// between temp write and rename (a simulated crash): that job fails, the
// store stays clean, and the next fit persists and serves normally.
func TestChaosRegistryWriteFailure(t *testing.T) {
	armFaults(t, "registry.write=error#1")
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Config{FitWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() { hs.Close(); s.Close() })

	id := submitChaosFit(t, hs.URL, "chaoswr")
	st := waitTerminal(t, hs.URL, id, 10*time.Second)
	if st.State != JobFailed || !strings.Contains(st.Error, "injected") {
		t.Fatalf("state %s error %q, want failed with injected write error", st.State, st.Error)
	}
	assertHealthy(t, hs.URL)

	// The fault is exhausted: the same fit must now persist and serve.
	id2 := submitChaosFit(t, hs.URL, "chaoswr")
	if st2 := waitTerminal(t, hs.URL, id2, 30*time.Second); st2.State != JobDone {
		t.Fatalf("post-crash fit state %s (%s), want done", st2.State, st2.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/models/chaoswr")
	if err != nil {
		t.Fatal(err)
	}
	info := decode[ModelInfo](t, resp)
	if info.Version != 1 {
		t.Fatalf("version %d, want 1 (failed write must not burn a version)", info.Version)
	}

	// A fresh registry over the same store must load cleanly: no torn file.
	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatalf("reopen store after simulated crash: %v", err)
	}
	if _, ok := reg2.Get("chaoswr"); !ok {
		t.Fatal("model missing after store reopen")
	}
}

// TestChaosStalledJobTimesOut stalls the worker of each job kind far past
// the kind's own deadline cap (FitTimeout for fit and refine,
// PipelineTimeout for pipeline, the other cap left at its multi-minute
// default): the job must land in timed_out, not wedge the worker.
func TestChaosStalledJobTimesOut(t *testing.T) {
	for _, k := range chaosKinds {
		t.Run(k.kind, func(t *testing.T) {
			const deadline = time.Second
			cfg := Config{FitWorkers: 1}
			*k.cap(&cfg) = deadline
			_, hs := newTestServer(t, cfg)
			k.setup(t, hs.URL, "chaosstall")
			armFaults(t, k.point+"=delay:60s")

			id := k.submit(t, hs.URL, "chaosstall")
			st := waitTerminal(t, hs.URL, id, 10*time.Second)
			if st.State != JobTimedOut {
				t.Fatalf("state %s (%s), want timed_out", st.State, st.Error)
			}
			if want := fmt.Sprintf("deadline %s exceeded: ", deadline); !strings.HasPrefix(st.Error, want) {
				t.Fatalf("error %q, want prefix %q", st.Error, want)
			}
			assertHealthy(t, hs.URL)
			if n := metricInt(t, hs.URL, k.counter, "timed_out"); n != 1 {
				t.Fatalf("%s.timed_out = %d, want 1", k.counter, n)
			}
			// Worker survived the timeout: with the stall disarmed it must pick up
			// and complete the next job.
			faultinject.Reset()
			id2 := k.submit(t, hs.URL, "chaosstall")
			if st2 := waitTerminal(t, hs.URL, id2, 30*time.Second); st2.State != JobDone {
				t.Fatalf("post-stall %s state %s (%s), want done", k.kind, st2.State, st2.Error)
			}
		})
	}
}

// TestChaosStalledJobCanceledViaDelete cancels a stalled running job of
// each kind through DELETE /v1/jobs/{id}: cancellation must cut the 60s
// stall short, and the worker must go on to complete the next job.
func TestChaosStalledJobCanceledViaDelete(t *testing.T) {
	for _, k := range chaosKinds {
		t.Run(k.kind, func(t *testing.T) {
			_, hs := newTestServer(t, Config{FitWorkers: 1})
			k.setup(t, hs.URL, "chaoscancel")
			armFaults(t, k.point+"=delay:60s")

			id := k.submit(t, hs.URL, "chaoscancel")
			waitRunning(t, hs.URL, id)

			resp := cancelJob(t, hs.URL, id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cancel: HTTP %d", resp.StatusCode)
			}
			resp.Body.Close()
			start := time.Now()
			st := waitTerminal(t, hs.URL, id, 10*time.Second)
			if st.State != JobCanceled {
				t.Fatalf("state %s (%s), want canceled", st.State, st.Error)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v against a 60s stall", elapsed)
			}
			assertHealthy(t, hs.URL)
			if n := metricInt(t, hs.URL, k.counter, "canceled"); n != 1 {
				t.Fatalf("%s.canceled = %d, want 1", k.counter, n)
			}

			if resp := cancelJob(t, hs.URL, "job-424242"); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("cancel unknown job: HTTP %d, want 404", resp.StatusCode)
			} else {
				resp.Body.Close()
			}

			faultinject.Reset()
			id2 := k.submit(t, hs.URL, "chaoscancel")
			if st2 := waitTerminal(t, hs.URL, id2, 30*time.Second); st2.State != JobDone {
				t.Fatalf("post-cancel %s state %s (%s), want done", k.kind, st2.State, st2.Error)
			}
		})
	}
}

// TestChaosLoadSheddingWithRetryAfter saturates the fit queue behind a
// stalled worker: further fits and interactive predict traffic must be shed
// with 503 + Retry-After instead of queuing unboundedly, and service must
// resume once the backlog clears.
func TestChaosLoadSheddingWithRetryAfter(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	_, hs := newTestServer(t, Config{FitWorkers: 1, QueueDepth: 1})
	uploadModel(t, hs.URL, "lin", 3)

	// Job 1 occupies the lone worker (stalled); job 2 fills the queue.
	id1 := submitChaosFit(t, hs.URL, "chaosshed")
	waitRunning(t, hs.URL, id1)
	id2 := submitChaosFit(t, hs.URL, "chaosshed")

	// Queue saturated: fit submissions bounce with Retry-After...
	resp := post(t, hs.URL+"/v1/fit", chaosFitBody("chaosshed"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit on full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("fit 503 carries no Retry-After header")
	}
	resp.Body.Close()

	// ...and so does predict traffic, which must fail fast, not slow.
	resp = post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,1,0]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict while saturated: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed predict carries no Retry-After header")
	}
	if e := decode[ErrorResponse](t, resp); !strings.Contains(e.Error, "overloaded") {
		t.Fatalf("shed body %q", e.Error)
	}
	if n := metricInt(t, hs.URL, "incidents", "requests_shed"); n < 1 {
		t.Fatalf("requests_shed = %d, want ≥ 1", n)
	}

	// Clear the backlog; predicts must flow again.
	for _, id := range []string{id2, id1} {
		resp := cancelJob(t, hs.URL, id)
		resp.Body.Close()
	}
	waitTerminal(t, hs.URL, id1, 10*time.Second)
	waitTerminal(t, hs.URL, id2, 10*time.Second)
	assertPredicts(t, hs.URL, "lin")
	assertHealthy(t, hs.URL)
}

// TestChaosPredictDeadline stalls the predict handler past the per-request
// deadline: the caller gets a 504, not an indefinite hang.
func TestChaosPredictDeadline(t *testing.T) {
	armFaults(t, "server.predict=delay:60s")
	_, hs := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	uploadModel(t, hs.URL, "lin", 3)

	start := time.Now()
	resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,1,0]]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504", resp.StatusCode)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v against a 60s stall", elapsed)
	}
	faultinject.Reset()
	assertPredicts(t, hs.URL, "lin")
	assertHealthy(t, hs.URL)
}

// TestDrainingHealthz checks the readiness flip: a draining daemon answers
// 503/"draining" so load balancers rotate it out while work finishes.
func TestDrainingHealthz(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	assertHealthy(t, hs.URL)
	s.BeginDrain()
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}
	if h := decode[HealthResponse](t, resp); h.Status != "draining" {
		t.Fatalf("draining healthz status %q", h.Status)
	}
}

// TestPredictRejectsNonFinitePoints is the input-validation check: NaN/Inf
// coordinates are rejected with the offending row and column named. Strict
// JSON cannot express NaN, so the validator is exercised directly; the HTTP
// layer is checked with an out-of-range literal, which must also 400.
func TestPredictRejectsNonFinitePoints(t *testing.T) {
	err := validatePoints([][]float64{{1, 1, 0}, {0, math.NaN(), 0}}, 3)
	if err == nil || !strings.Contains(err.Error(), "point 1 coordinate 1") {
		t.Fatalf("NaN point: %v, want error naming row 1 col 1", err)
	}
	if err := validatePoints([][]float64{{math.Inf(1), 0}}, 2); err == nil {
		t.Fatal("Inf point should be rejected")
	}
	if err := validatePoints([][]float64{{1, 0}, {1}}, 2); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("short point: %v, want error naming row 1", err)
	}
	if err := validatePoints([][]float64{{0.5, -0.5}}, 2); err != nil {
		t.Fatalf("finite well-shaped points rejected: %v", err)
	}

	_, hs := newTestServer(t, Config{})
	uploadModel(t, hs.URL, "lin", 3)
	resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,1e999,0]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range literal: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestChaosMetricsScrapeUnderFire hammers /metrics in both representations
// from concurrent scrapers while fit jobs run, predict traffic flows, and
// injected panics fire — the regime where a torn snapshot or data race in
// the metrics path would surface. Every Prometheus body must validate and
// every JSON body must parse, throughout. Runs under -race in make chaos.
func TestChaosMetricsScrapeUnderFire(t *testing.T) {
	armFaults(t, "server.predict=panic#5")
	_, hs := newTestServer(t, Config{FitWorkers: 2})
	uploadModel(t, hs.URL, "lin", 3)

	const (
		scrapers   = 4
		scrapeN    = 25
		predictors = 4
		predictN   = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, scrapers*2+predictors+1)

	scrapeProm := func() error {
		resp, err := http.Get(hs.URL + "/metrics?format=prometheus")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("prometheus scrape: HTTP %d", resp.StatusCode)
		}
		if err := obs.ValidateExposition(resp.Body); err != nil {
			return fmt.Errorf("mid-fire exposition invalid: %w", err)
		}
		return nil
	}
	scrapeJSON := func() error {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return fmt.Errorf("mid-fire JSON snapshot invalid: %w", err)
		}
		return nil
	}

	for i := 0; i < scrapers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < scrapeN; n++ {
				if err := scrapeProm(); err != nil {
					errCh <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for n := 0; n < scrapeN; n++ {
				if err := scrapeJSON(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < predictors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < predictN; n++ {
				// Panics injected into some of these land as 500s; both
				// outcomes are legitimate traffic for the scrape.
				resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,1,0]]}`)
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := []string{
			submitChaosFit(t, hs.URL, "chaosscrape"),
			submitChaosFit(t, hs.URL, "chaosscrape"),
		}
		for _, id := range ids {
			waitTerminal(t, hs.URL, id, 30*time.Second)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	assertHealthy(t, hs.URL)
	if n := metricInt(t, hs.URL, "incidents", "panics_recovered"); n < 1 {
		t.Fatalf("panics_recovered = %d, want ≥ 1 (faults never fired)", n)
	}
	if err := scrapeProm(); err != nil {
		t.Fatalf("post-fire scrape: %v", err)
	}
}

// TestChaosPipelineSimFault injects a simulator failure mid-sampling: the
// pipeline job must land in failed — not hang — with the failed sample
// stage on record, nothing published, and the daemon healthy.
func TestChaosPipelineSimFault(t *testing.T) {
	armFaults(t, "pipeline.sim=error:injected simulator fault")
	_, hs := newTestServer(t, Config{})

	id := submitPipeline(t, hs.URL, pipelineBody(t, "chaospipe", "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
	st := waitTerminal(t, hs.URL, id, 30*time.Second)
	if st.State != JobFailed || !strings.Contains(st.Error, "injected simulator fault") {
		t.Fatalf("state %s (%q), want failed with injected fault", st.State, st.Error)
	}
	if n := len(st.Stages); n == 0 || st.Stages[n-1].Stage != pipeline.StageSample || st.Stages[n-1].Error == "" {
		t.Fatalf("stage timeline %+v, want trailing failed sample stage", st.Stages)
	}
	if n := metricInt(t, hs.URL, "models"); n != 0 {
		t.Fatalf("registry holds %d models after failed pipeline, want 0", n)
	}
	if n := metricInt(t, hs.URL, "pipelines", "failed"); n != 1 {
		t.Fatalf("pipelines.failed = %d, want 1", n)
	}
	assertHealthy(t, hs.URL)
}

// TestChaosPipelineCancelMidSampling cancels a pipeline whose simulator
// workers are stalled inside a 10s-per-sample delay: DELETE
// /v1/pipelines/{id} must cut the stall short — armed delays abort on
// context cancellation and the sampling pool checks the job context
// between samples — and must publish nothing.
func TestChaosPipelineCancelMidSampling(t *testing.T) {
	armFaults(t, "pipeline.sim=delay:10s")
	_, hs := newTestServer(t, Config{})

	id := submitPipeline(t, hs.URL, pipelineBody(t, "chaospipecancel", "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
	waitRunning(t, hs.URL, id)

	resp := cancelPipeline(t, hs.URL, id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel pipeline: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	start := time.Now()
	st := waitTerminal(t, hs.URL, id, 10*time.Second)
	if st.State != JobCanceled {
		t.Fatalf("state %s (%q), want canceled", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v against a 10s-per-sample stall", elapsed)
	}
	if n := metricInt(t, hs.URL, "models"); n != 0 {
		t.Fatalf("registry holds %d models after canceled pipeline, want 0", n)
	}
	if n := metricInt(t, hs.URL, "pipelines", "canceled"); n != 1 {
		t.Fatalf("pipelines.canceled = %d, want 1", n)
	}
	assertHealthy(t, hs.URL)

	if resp := cancelPipeline(t, hs.URL, "job-424242"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown pipeline: HTTP %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// --- Crash / recovery suite (make crash-smoke) ------------------------------
//
// Each TestCrash* test simulates an unclean daemon death around the durable
// job journal: jobs in flight at "crash" time must be re-run to completion
// by the next boot, terminal outcomes must stick, poison jobs must be
// quarantined, and disk pressure must degrade submits without taking down
// the read paths.

// newJournaledServer builds a Server journaling into dir over a fresh
// in-memory registry, plus an httptest front end. Restart tests own the
// shutdown ordering, so no cleanup is registered for the "crashing" life.
func newJournaledServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = dir
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(registry.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s)
}

// crashServer simulates an unclean daemon death: the listener stops and the
// drain budget is already nearly expired, so live jobs are canceled through
// the drain path — which deliberately journals no terminal records, leaving
// the on-disk trail exactly as a SIGKILL would: submitted/started but not
// finished.
func crashServer(t *testing.T, s *Server, hs *httptest.Server) {
	t.Helper()
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// waitPipelineTerminal polls GET /v1/pipelines/{id} until terminal.
func waitPipelineTerminal(t *testing.T, baseURL, id string, budget time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		st := getPipelineStatus(t, baseURL, id)
		if terminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryResumesInFlightJobs is the durability acceptance test: a
// fit job and a pipeline job both running when the daemon dies are replayed
// from the journal on the next boot, re-run to done under their original
// IDs, and marked as recovery attempt 1 — in the job status and, for the
// pipeline, in the published model's provenance.
func TestCrashRecoveryResumesInFlightJobs(t *testing.T) {
	armFaults(t, "server.fit=delay:60s;pipeline.sim=delay:60s")
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 2})

	fitID := submitChaosFit(t, hs1.URL, "crashfit")
	pipeID := submitPipeline(t, hs1.URL, pipelineBody(t, "crashpipe", "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
	waitRunning(t, hs1.URL, fitID)
	deadline := time.Now().Add(10 * time.Second)
	for getPipelineStatus(t, hs1.URL, pipeID).State == JobPending {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline %s never left pending", pipeID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	crashServer(t, s1, hs1)

	// The next boot comes up without the stall and replays the journal.
	faultinject.Reset()
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 2})
	t.Cleanup(func() { hs2.Close(); s2.Close() })

	st := waitTerminal(t, hs2.URL, fitID, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("recovered fit %s state %s (%q), want done", fitID, st.State, st.Error)
	}
	if st.RecoveryAttempt != 1 {
		t.Fatalf("recovered fit recovery_attempt = %d, want 1", st.RecoveryAttempt)
	}
	pst := waitPipelineTerminal(t, hs2.URL, pipeID, 60*time.Second)
	if pst.State != JobDone {
		t.Fatalf("recovered pipeline %s state %s (%q), want done", pipeID, pst.State, pst.Error)
	}
	if pst.RecoveryAttempt != 1 {
		t.Fatalf("recovered pipeline recovery_attempt = %d, want 1", pst.RecoveryAttempt)
	}
	prov := pst.Pipeline.Model.Provenance
	if prov.Pipeline == nil || prov.Pipeline.RecoveryAttempt != 1 {
		t.Fatalf("pipeline provenance %+v, want recovery_attempt 1", prov.Pipeline)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_recovered"); n != 2 {
		t.Fatalf("journal.jobs_recovered = %d, want 2", n)
	}
	assertHealthy(t, hs2.URL)
}

// TestCrashRecoveryIdempotentResubmit: an Idempotency-Key submit answered
// before a restart is deduplicated after it — the retry gets the original
// job ID back with the replay marker header, and reusing the key for the
// other job kind is a 409.
func TestCrashRecoveryIdempotentResubmit(t *testing.T) {
	faultinject.Reset()
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 1})

	submitIdem := func(baseURL, key string) (*http.Response, FitResponse) {
		req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/fit", strings.NewReader(chaosFitBody("idemfit")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("idempotent submit: HTTP %d", resp.StatusCode)
		}
		return resp, decode[FitResponse](t, resp)
	}

	const key = "retry-key-0001"
	_, first := submitIdem(hs1.URL, key)
	waitTerminal(t, hs1.URL, first.JobID, 30*time.Second)

	// Same key within one daemon life: the original job comes back.
	resp, dup := submitIdem(hs1.URL, key)
	if dup.JobID != first.JobID {
		t.Fatalf("same-life duplicate got job %s, want %s", dup.JobID, first.JobID)
	}
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("duplicate submit missing Idempotency-Replayed header")
	}

	// Graceful restart: the dedup map is journal-backed, so the key still
	// resolves to the original job in the next life.
	hs1.Close()
	s1.Close()
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	t.Cleanup(func() { hs2.Close(); s2.Close() })
	resp2, dup2 := submitIdem(hs2.URL, key)
	if dup2.JobID != first.JobID {
		t.Fatalf("post-restart duplicate got job %s, want %s", dup2.JobID, first.JobID)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("post-restart duplicate missing Idempotency-Replayed header")
	}
	if st := getJobStatus(t, hs2.URL, first.JobID); st.State != JobDone {
		t.Fatalf("recovered terminal job state %s, want done (queryable across restart)", st.State)
	} else if st.RecoveryAttempt != 0 {
		t.Fatalf("job done in its first life shows recovery_attempt %d after restart, want 0", st.RecoveryAttempt)
	}
	// Terminal metrics must not double-count the replayed terminal job.
	if n := metricInt(t, hs2.URL, "jobs", "completed"); n != 0 {
		t.Fatalf("jobs.completed = %d after replay-only boot, want 0", n)
	}

	// The key is pinned to a fit job: reusing it on the pipeline route is a
	// conflict, not a silent cross-kind replay.
	preq, err := http.NewRequest(http.MethodPost, hs2.URL+"/v1/pipelines",
		strings.NewReader(pipelineBody(t, "idempipe", "rc_lowpass.cir", "rc_lowpass_pipeline.json")))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Idempotency-Key", key)
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-kind key reuse: HTTP %d, want 409", presp.StatusCode)
	}
}

// TestCrashRecoveryQuarantinesPoisonJob: a job that was running at every
// crash reaches the recovery-attempt limit and is quarantined as failed
// instead of crash-looping the daemon — and the quarantine is journaled, so
// yet another restart leaves it failed rather than trying again.
func TestCrashRecoveryQuarantinesPoisonJob(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 1, RecoveryMaxAttempts: 1})
	id := submitChaosFit(t, hs1.URL, "poison")
	waitRunning(t, hs1.URL, id)
	crashServer(t, s1, hs1)
	faultinject.Reset()

	// One prior start ≥ limit 1: quarantined at boot, before any worker
	// touches it.
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1, RecoveryMaxAttempts: 1})
	st := getJobStatus(t, hs2.URL, id)
	if st.State != JobFailed || !strings.Contains(st.Error, "quarantined") {
		t.Fatalf("poison job state %s (%q), want failed with quarantine message", st.State, st.Error)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_quarantined"); n != 1 {
		t.Fatalf("journal.jobs_quarantined = %d, want 1", n)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_recovered"); n != 0 {
		t.Fatalf("journal.jobs_recovered = %d, want 0", n)
	}
	hs2.Close()
	s2.Close()

	// The quarantine is a journaled terminal record: the third life replays
	// it as plain terminal state, no re-quarantine, no re-run.
	s3, hs3 := newJournaledServer(t, dir, Config{FitWorkers: 1, RecoveryMaxAttempts: 1})
	t.Cleanup(func() { hs3.Close(); s3.Close() })
	st3 := getJobStatus(t, hs3.URL, id)
	if st3.State != JobFailed || !strings.Contains(st3.Error, "quarantined") {
		t.Fatalf("third-life state %s (%q), want the journaled quarantine", st3.State, st3.Error)
	}
	if n := metricInt(t, hs3.URL, "journal", "jobs_quarantined"); n != 0 {
		t.Fatalf("third-life jobs_quarantined = %d, want 0 (outcome already terminal)", n)
	}
}

// TestCrashRecoveryCanceledStaysCanceled: a client cancellation journals a
// terminal record, so a job canceled before the crash is not resurrected by
// replay — while its still-live sibling is.
func TestCrashRecoveryCanceledStaysCanceled(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	runningID := submitChaosFit(t, hs1.URL, "keepme")
	waitRunning(t, hs1.URL, runningID)
	pendingID := submitChaosFit(t, hs1.URL, "cancelme")
	if resp := cancelJob(t, hs1.URL, pendingID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if st := getJobStatus(t, hs1.URL, pendingID); st.State != JobCanceled {
		t.Fatalf("canceled job state %s before crash", st.State)
	}
	crashServer(t, s1, hs1)
	faultinject.Reset()

	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	t.Cleanup(func() { hs2.Close(); s2.Close() })
	if st := getJobStatus(t, hs2.URL, pendingID); st.State != JobCanceled {
		t.Fatalf("canceled job resurrected as %s", st.State)
	}
	if st := waitTerminal(t, hs2.URL, runningID, 30*time.Second); st.State != JobDone {
		t.Fatalf("live sibling state %s (%q), want done", st.State, st.Error)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_recovered"); n != 1 {
		t.Fatalf("journal.jobs_recovered = %d, want 1 (only the live job)", n)
	}
}

// TestChaosJournalDiskFullDegrades: when journal appends fail (disk full),
// async submits shed with 503 + Retry-After while predict and job reads
// keep serving; /healthz and /metrics surface the degraded journal, and the
// first successful append restores submits.
func TestChaosJournalDiskFullDegrades(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s, hs := newJournaledServer(t, dir, Config{FitWorkers: 1})
	t.Cleanup(func() { hs.Close(); s.Close() })
	uploadModel(t, hs.URL, "lin", 3)
	okID := submitChaosFit(t, hs.URL, "prefull")
	waitTerminal(t, hs.URL, okID, 30*time.Second)

	if err := faultinject.Configure("journal.append=error:no space left on device"); err != nil {
		t.Fatal(err)
	}
	resp := post(t, hs.URL+"/v1/fit", chaosFitBody("duringfull"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under disk pressure: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded submit carries no Retry-After")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "journal degraded") {
		t.Fatalf("degraded submit error %q (%v)", e.Error, err)
	}
	resp.Body.Close()

	// Read paths ride through: predictions and job status still serve.
	assertPredicts(t, hs.URL, "lin")
	if st := getJobStatus(t, hs.URL, okID); st.State != JobDone {
		t.Fatalf("job read under disk pressure: state %s", st.State)
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[HealthResponse](t, hresp)
	if hresp.StatusCode != http.StatusOK || health.Journal != "degraded" {
		t.Fatalf("healthz %d journal %q, want 200 + degraded", hresp.StatusCode, health.Journal)
	}
	if n := metricInt(t, hs.URL, "journal", "append_errors"); n < 1 {
		t.Fatalf("journal.append_errors = %d, want ≥ 1", n)
	}

	// Disk pressure clears: the next submit journals and runs normally.
	faultinject.Reset()
	recoveredID := submitChaosFit(t, hs.URL, "postfull")
	if st := waitTerminal(t, hs.URL, recoveredID, 30*time.Second); st.State != JobDone {
		t.Fatalf("post-recovery fit state %s (%q)", st.State, st.Error)
	}
	hresp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if health2 := decode[HealthResponse](t, hresp2); health2.Journal != "ok" {
		t.Fatalf("healthz journal %q after recovery, want ok", health2.Journal)
	}
}

// TestCrashRecoveryCancelReplayedJob: a job replayed from the journal but
// not yet picked up by a worker in the new life can be canceled like any
// pending job — the cancel is journaled, so a further restart keeps it
// canceled instead of re-running it.
func TestCrashRecoveryCancelReplayedJob(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	stuckID := submitChaosFit(t, hs1.URL, "stuck")
	waitRunning(t, hs1.URL, stuckID)
	replayedID := submitChaosFit(t, hs1.URL, "replayed")
	crashServer(t, s1, hs1)

	// Second life with the stall still armed: the single worker jams on the
	// first replayed job, so the second sits replayed-but-not-restarted.
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	if st := getJobStatus(t, hs2.URL, replayedID); st.State != JobPending && st.State != JobRunning {
		t.Fatalf("replayed job state %s, want pending/running", st.State)
	}
	if resp := cancelJob(t, hs2.URL, replayedID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel replayed job: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if st := waitTerminal(t, hs2.URL, replayedID, 10*time.Second); st.State != JobCanceled {
		t.Fatalf("replayed job state %s after DELETE, want canceled", st.State)
	}
	crashServer(t, s2, hs2)
	faultinject.Reset()

	// Third life: the cancel was journaled terminally, so only the stuck job
	// is recovered; the canceled one stays canceled.
	s3, hs3 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	t.Cleanup(func() { hs3.Close(); s3.Close() })
	if st := getJobStatus(t, hs3.URL, replayedID); st.State != JobCanceled {
		t.Fatalf("canceled replayed job resurrected as %s", st.State)
	}
	if st := waitTerminal(t, hs3.URL, stuckID, 30*time.Second); st.State != JobDone {
		t.Fatalf("stuck job state %s (%q) in third life, want done", st.State, st.Error)
	}
	if st := getJobStatus(t, hs3.URL, stuckID); st.RecoveryAttempt != 2 {
		t.Fatalf("stuck job recovery_attempt = %d, want 2", st.RecoveryAttempt)
	}
}

// TestCrashRecoveryQueueDepthDrainsToZero is the queue-depth gauge
// regression test: across every release path — worker pickup, cancellation
// of a pending job, a crash with jobs queued, and journal replay on the
// next boot — rsmd_job_queue_depth must end at exactly zero, in the JSON
// tree and in the Prometheus exposition. The gauge counts jobs admitted
// but not yet released by leaveQueue, so a double-release or a missed
// release on any of those paths shows up here as a nonzero residue.
func TestCrashRecoveryQueueDepthDrainsToZero(t *testing.T) {
	armFaults(t, "server.fit=delay:60s")
	dir := t.TempDir()
	s1, hs1 := newJournaledServer(t, dir, Config{FitWorkers: 1, QueueDepth: 8})

	runningID := submitChaosFit(t, hs1.URL, "depth-running")
	waitRunning(t, hs1.URL, runningID)
	queuedID := submitChaosFit(t, hs1.URL, "depth-queued")
	doomedID := submitChaosFit(t, hs1.URL, "depth-doomed")
	if n := metricInt(t, hs1.URL, "queue", "depth"); n != 2 {
		t.Fatalf("depth with 1 running + 2 pending = %d, want 2", n)
	}
	// Pending-cancel is one of the two release paths; it must decrement
	// exactly once.
	if resp := cancelJob(t, hs1.URL, doomedID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel pending: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if n := metricInt(t, hs1.URL, "queue", "depth"); n != 1 {
		t.Fatalf("depth after pending-cancel = %d, want 1", n)
	}
	crashServer(t, s1, hs1)

	// Reboot without the stall: the journal replays the running and queued
	// jobs, both run to done, and the gauge must return to zero — replayed
	// jobs occupy depth slots too and must release them on pickup.
	faultinject.Reset()
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1, QueueDepth: 8})
	t.Cleanup(func() { hs2.Close(); s2.Close() })
	for _, id := range []string{runningID, queuedID} {
		if st := waitTerminal(t, hs2.URL, id, 30*time.Second); st.State != JobDone {
			t.Fatalf("replayed job %s state %s (%q), want done", id, st.State, st.Error)
		}
	}
	if st := getJobStatus(t, hs2.URL, doomedID); st.State != JobCanceled {
		t.Fatalf("canceled job resurrected as %s", st.State)
	}
	if n := metricInt(t, hs2.URL, "queue", "depth"); n != 0 {
		t.Fatalf("depth after recovery drained = %d, want 0", n)
	}
	body := scrapeText(t, hs2.URL)
	if !regexp.MustCompile(`(?m)^rsmd_job_queue_depth 0$`).MatchString(body) {
		t.Fatalf("gauge not zero in exposition:\n%s", grepLines(body, "rsmd_job_queue_depth"))
	}
	assertHealthy(t, hs2.URL)
}

// updateJournalGolden rewrites testdata/journal_submitted.golden from the
// running code. Only for a deliberate journal format change: a daemon must
// still replay journals written before it.
var updateJournalGolden = flag.Bool("update-journal-golden", false,
	"rewrite testdata/journal_submitted.golden")

// Fixed submit bodies for the journal golden test, one per job kind.
const (
	goldenFitBody = `{"name":"golden","folds":2,"max_lambda":3,
		"points":[[0.1,0.2],[0.3,-0.4],[-0.5,0.6],[0.7,0.8],[0.2,-0.6],[-0.3,0.5]],
		"values":[1,2,3,4,5,6],"timeout_seconds":30}`
	goldenRefineBody   = `{"points":[[0.4,-0.1],[-0.2,0.9]],"values":[2.5,3.5],"folds":2}`
	goldenPipelineBody = `{"name":"golden-pipe",
		"netlist":"* RC low-pass\nV1 in 0 DC 0\nR1 in out 1k\nC1 out 0 159.155n\n.ac V1 1 dec 10 10 100k\n.print out\n.end\n",
		"spec":{"variation":{"devices":[{"device":"R1","params":["rwire"],"w":1,"l":1}],
			"inter_die_sigma":{"rwire":0.05},"pelgrom_a":{"rwire":0.02}},
			"measure":{"kind":"ac_gain_db","node":"out","freq":1000},
			"sampling":{"mode":"mc","samples":16,"seed":7},
			"fit":{"degree":1,"solvers":["omp"]}},
		"timeout_seconds":60}`
)

// TestCrashJournalFormatGolden pins the journal's submitted records: one
// fixed request of each job kind is submitted to a journaled daemon, and
// every submitted record's kind and payload bytes must match what the
// daemon wrote when this test was introduced. Replay of a journal written
// by an older daemon depends on exactly these bytes, which the same-binary
// crash tests cannot notice drifting.
func TestCrashJournalFormatGolden(t *testing.T) {
	faultinject.Reset()
	dir := t.TempDir()
	s, hs := newJournaledServer(t, dir, Config{FitWorkers: 1})

	// The fit runs to done so the refine has a checkpointed parent; the
	// refine and pipeline stall and die with the daemon, their submitted
	// records already on disk.
	resp := post(t, hs.URL+"/v1/fit", goldenFitBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit submit: HTTP %d", resp.StatusCode)
	}
	if st := waitTerminal(t, hs.URL, decode[FitResponse](t, resp).JobID, 30*time.Second); st.State != JobDone {
		t.Fatalf("fit state %s (%q), want done", st.State, st.Error)
	}
	armFaults(t, "server.refine=delay:60s;server.pipeline=delay:60s")
	resp = post(t, hs.URL+"/v1/models/golden/refine", goldenRefineBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refine submit: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	submitPipeline(t, hs.URL, goldenPipelineBody)
	crashServer(t, s, hs)

	segs, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments: %v (%v)", segs, err)
	}
	var got bytes.Buffer
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var rec journal.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			if rec.Type == journal.TypeSubmitted {
				fmt.Fprintf(&got, "%s %s\n", rec.Kind, rec.Payload)
			}
		}
	}

	golden := filepath.Join("testdata", "journal_submitted.golden")
	if *updateJournalGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("submitted journal records drifted from %s\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestCrashRecoveryQuarantinesUnknownKind: a journaled job whose kind this
// daemon does not know is quarantined at boot — failed with the kind named,
// journaled terminal and counted — and never run as some other kind.
func TestCrashRecoveryQuarantinesUnknownKind(t *testing.T) {
	faultinject.Reset()
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Type: journal.TypeSubmitted, JobID: "job-000001", Kind: "bogus",
		Payload: json.RawMessage(chaosFitBody("bogus")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	const want = `quarantined: unknown job kind "bogus"`
	s2, hs2 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	st := getJobStatus(t, hs2.URL, "job-000001")
	if st.State != JobFailed || st.Error != want || st.Kind != "bogus" {
		t.Fatalf("unknown-kind job kind %q state %s (%q), want bogus failed (%q)", st.Kind, st.State, st.Error, want)
	}
	if st.Started != nil {
		t.Fatalf("unknown-kind job started at %v, want never run", st.Started)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_quarantined"); n != 1 {
		t.Fatalf("journal.jobs_quarantined = %d, want 1", n)
	}
	if n := metricInt(t, hs2.URL, "journal", "jobs_recovered"); n != 0 {
		t.Fatalf("journal.jobs_recovered = %d, want 0", n)
	}
	if n := metricInt(t, hs2.URL, "jobs", "failed"); n != 0 {
		t.Fatalf("jobs.failed = %d, want 0 (a quarantine is not a fit outcome)", n)
	}
	hs2.Close()
	s2.Close()

	// The quarantine is journaled terminal: the next life replays it as is.
	s3, hs3 := newJournaledServer(t, dir, Config{FitWorkers: 1})
	t.Cleanup(func() { hs3.Close(); s3.Close() })
	if st := getJobStatus(t, hs3.URL, "job-000001"); st.State != JobFailed || st.Error != want {
		t.Fatalf("third-life state %s (%q), want the journaled quarantine", st.State, st.Error)
	}
	if n := metricInt(t, hs3.URL, "journal", "jobs_quarantined"); n != 0 {
		t.Fatalf("third-life jobs_quarantined = %d, want 0 (outcome already terminal)", n)
	}
}
