package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/rng"
)

// newTestServer spins up a server over an in-memory registry. Logs are
// discarded unless the config brings its own logger (tests asserting on log
// output do).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(registry.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// envelopeJSON serializes a small linear model over dim variables.
func envelopeJSONBytes(t *testing.T, dim int) []byte {
	t.Helper()
	b := basis.Linear(dim)
	env := &core.Envelope{
		Model: &core.Model{M: b.Size(), Support: []int{1, 2}, Coef: []float64{2, -3}},
		Basis: b.Desc,
		Prov:  core.Provenance{Solver: "OMP", Lambda: 2, Metric: "f"},
	}
	var buf bytes.Buffer
	if err := core.WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post sends a JSON body and returns the response.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func uploadModel(t *testing.T, baseURL, name string, dim int) {
	t.Helper()
	req, _ := json.Marshal(UploadRequest{Name: name, Model: envelopeJSONBytes(t, dim)})
	resp := post(t, baseURL+"/v1/models", string(req))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHandlerErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBatch: 10})
	uploadModel(t, hs.URL, "lin", 3)

	legacyUpload, _ := json.Marshal(UploadRequest{
		Name:  "legacy",
		Model: json.RawMessage(`{"m":4,"support":[1],"coef":[2]}`),
	})
	bigBatch := `{"points":[` + strings.Repeat(`[0,0,0],`, 10) + `[0,0,0]]}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"predict ok", "POST", "/v1/models/lin/predict", `{"points":[[1,0,0],[0,1,0]]}`, 200},
		{"predict bad json", "POST", "/v1/models/lin/predict", `{"points":[[1,`, 400},
		{"predict unknown field", "POST", "/v1/models/lin/predict", `{"pts":[[1,0,0]]}`, 400},
		{"predict unknown model", "POST", "/v1/models/nope/predict", `{"points":[[1,0,0]]}`, 404},
		{"predict dim mismatch", "POST", "/v1/models/lin/predict", `{"points":[[1,0]]}`, 400},
		{"predict empty", "POST", "/v1/models/lin/predict", `{"points":[]}`, 400},
		{"predict oversized batch", "POST", "/v1/models/lin/predict", bigBatch, 413},
		{"upload bad json", "POST", "/v1/models", `nope`, 400},
		{"upload bad name", "POST", "/v1/models", `{"name":"../x","model":{"m":1,"support":[],"coef":[]}}`, 400},
		{"upload legacy no basis", "POST", "/v1/models", string(legacyUpload), 400},
		{"upload missing model", "POST", "/v1/models", `{"name":"x"}`, 400},
		{"model info ok", "GET", "/v1/models/lin", "", 200},
		{"model info unknown", "GET", "/v1/models/nope", "", 404},
		{"yield unknown model", "POST", "/v1/models/nope/yield", `{}`, 404},
		{"yield bad quantile", "POST", "/v1/models/lin/yield", `{"quantiles":[1.5]}`, 400},
		{"yield bad n", "POST", "/v1/models/lin/yield", `{"n":-5}`, 400},
		{"fit bad solver", "POST", "/v1/fit", `{"name":"m","solver":"newton","points":[[1]],"values":[1]}`, 400},
		{"fit bad name", "POST", "/v1/fit", `{"name":"!!","points":[[1]],"values":[1]}`, 400},
		{"fit no dataset", "POST", "/v1/fit", `{"name":"m"}`, 400},
		{"fit bad folds", "POST", "/v1/fit", `{"name":"m","folds":1,"points":[[1]],"values":[1]}`, 400},
		{"fit bad degree", "POST", "/v1/fit", `{"name":"m","degree":9,"points":[[1]],"values":[1]}`, 400},
		{"job unknown", "GET", "/v1/jobs/job-999999", "", 404},
		{"healthz", "GET", "/healthz", "", 200},
		{"metrics", "GET", "/metrics", "", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "GET" {
				resp, err = http.Get(hs.URL + tc.path)
			} else {
				resp, err = http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body := new(bytes.Buffer)
				_, _ = body.ReadFrom(resp.Body)
				t.Fatalf("HTTP %d, want %d (body: %s)", resp.StatusCode, tc.want, body.String())
			}
			// Error responses must carry the uniform JSON error body, not a
			// bare 5xx.
			if tc.want >= 400 {
				e := decode[ErrorResponse](t, resp)
				if e.Error == "" {
					t.Fatal("error response has empty error message")
				}
			}
		})
	}
}

func TestPredictValuesAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	uploadModel(t, hs.URL, "lin", 3) // f(y) = 2·y0 − 3·y1

	resp := post(t, hs.URL+"/v1/models/lin/predict", `{"points":[[1,0,0],[0,1,0],[0.5,-2,9]]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	pr := decode[PredictResponse](t, resp)
	want := []float64{2, -3, 7}
	for i, v := range want {
		if diff := pr.Values[i] - v; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("value %d = %g, want %g", i, pr.Values[i], v)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[map[string]any](t, resp)
	preds := m["predictions"].(map[string]any)
	if got := preds["lin"].(float64); got != 3 {
		t.Fatalf("prediction counter = %v, want 3", got)
	}
	requests := m["requests"].(map[string]any)
	route := requests["POST /v1/models/{name}/predict"].(map[string]any)
	if route["count"].(float64) != 1 || route["errors"].(float64) != 0 {
		t.Fatalf("route stats %v", route)
	}
}

func TestYieldEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	uploadModel(t, hs.URL, "lin", 3) // N(0, 2²+3²) → std = √13

	resp := post(t, hs.URL+"/v1/models/lin/yield",
		`{"low":0,"n":200000,"quantiles":[0.5]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	yr := decode[YieldResponse](t, resp)
	if yr.Mean != 0 {
		t.Errorf("mean %g, want 0", yr.Mean)
	}
	if d := yr.Std - 3.605551; d > 1e-5 || d < -1e-5 {
		t.Errorf("std %g, want √13", yr.Std)
	}
	if yr.Yield == nil || *yr.Yield < 0.48 || *yr.Yield > 0.52 {
		t.Errorf("yield %v, want ≈ 0.5", yr.Yield)
	}
	if len(yr.Quantiles) != 1 || yr.Quantiles[0] < -0.1 || yr.Quantiles[0] > 0.1 {
		t.Errorf("median %v, want ≈ 0", yr.Quantiles)
	}
}

func TestFitJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})

	// Synthetic linear ground truth f = 1 + 2·y0 − 3·y2 over 3 variables.
	src := rng.New(5)
	const n = 80
	points := make([][]float64, n)
	values := make([]float64, n)
	for k := range points {
		y := src.NormVec(nil, 3)
		points[k] = y
		values[k] = 1 + 2*y[0] - 3*y[2]
	}
	req, _ := json.Marshal(FitRequest{Name: "truth", Points: points, Values: values, MaxLambda: 5})
	resp := post(t, hs.URL+"/v1/fit", string(req))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	fr := decode[FitResponse](t, resp)
	if fr.JobID == "" {
		t.Fatal("no job id")
	}

	var st JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(hs.URL + "/v1/jobs/" + fr.JobID)
		if err != nil {
			t.Fatal(err)
		}
		st = decode[JobStatus](t, r)
		if st.State == JobDone || st.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result == nil || st.Result.Model.Name != "truth" || st.Result.Model.Version != 1 {
		t.Fatalf("result %+v", st.Result)
	}
	if st.Result.Lambda != 3 {
		t.Errorf("selected λ = %d, want 3 (constant + 2 linear terms)", st.Result.Lambda)
	}
	if st.Result.Model.Provenance.Solver != "OMP" || st.Result.Model.Provenance.Samples != n {
		t.Errorf("provenance %+v", st.Result.Model.Provenance)
	}

	// The fitted model must serve exact predictions of the ground truth.
	resp = post(t, hs.URL+"/v1/models/truth/predict", `{"points":[[1,9,2]]}`)
	pr := decode[PredictResponse](t, resp)
	if d := pr.Values[0] - (1 + 2 - 6); d > 1e-9 || d < -1e-9 {
		t.Fatalf("prediction %g, want -3", pr.Values[0])
	}
}

func TestFitJobFailureIsReported(t *testing.T) {
	_, hs := newTestServer(t, Config{FitWorkers: 1})
	// 3 points cannot sustain 4-fold CV → worker-side failure.
	req, _ := json.Marshal(FitRequest{
		Name:   "tiny",
		Points: [][]float64{{1}, {2}, {3}},
		Values: []float64{1, 2, 3},
	})
	resp := post(t, hs.URL+"/v1/fit", string(req))
	fr := decode[FitResponse](t, resp)
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(hs.URL + "/v1/jobs/" + fr.JobID)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[JobStatus](t, r)
		if st.State == JobFailed {
			if st.Error == "" {
				t.Fatal("failed job has no error message")
			}
			return
		}
		if st.State == JobDone {
			t.Fatal("job should have failed")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobQueueBackpressure(t *testing.T) {
	q := newJobQueue(2, nil, nil, nil) // no workers draining
	if _, _, err := q.enqueue(context.Background(), &FitRequest{Name: "a"}, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.enqueue(context.Background(), &FitRequest{Name: "b"}, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.enqueue(context.Background(), &FitRequest{Name: "c"}, "", ""); err == nil {
		t.Fatal("third submit should hit the queue bound")
	}
	q.startWorkers(1, func(j *job) {
		j.mu.Lock()
		j.state = JobDone
		j.mu.Unlock()
	})
	q.close()
	for _, id := range []string{"job-000001", "job-000002"} {
		j, ok := q.get(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if j.status().State != JobDone {
			t.Fatalf("%s state %s", id, j.status().State)
		}
	}
	if _, _, err := q.enqueue(context.Background(), &FitRequest{Name: "d"}, "", ""); err == nil {
		t.Fatal("submit after close should fail")
	}
}

func TestUploadVersionBump(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for v := 1; v <= 2; v++ {
		req, _ := json.Marshal(UploadRequest{Name: "lin", Model: envelopeJSONBytes(t, 3)})
		resp := post(t, hs.URL+"/v1/models", string(req))
		info := decode[ModelInfo](t, resp)
		if info.Version != v {
			t.Fatalf("version %d, want %d", info.Version, v)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	lr := decode[ListResponse](t, resp)
	if len(lr.Models) != 1 || lr.Models[0].Version != 2 || lr.Models[0].NNZ != 2 {
		t.Fatalf("listing %+v", lr.Models)
	}
	if lr.Models[0].Basis != (basis.Descriptor{Kind: basis.KindLinear, Dim: 3}) {
		t.Fatalf("listing descriptor %+v", lr.Models[0].Basis)
	}
}

func TestConcurrentPredicts(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	uploadModel(t, hs.URL, "lin", 3)
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			body := fmt.Sprintf(`{"points":[[%d,1,0],[0,2,1]]}`, c)
			for i := 0; i < 20; i++ {
				resp, err := http.Post(hs.URL+"/v1/models/lin/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("HTTP %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	snap := s.metrics.Snapshot(1, 0, s.predCache.stats(), journalStatus{}, trace.Stats{}, nil)
	preds := snap["predictions"].(map[string]int64)
	if preds["lin"] != clients*20*2 {
		t.Fatalf("prediction counter %d, want %d", preds["lin"], clients*20*2)
	}
}
