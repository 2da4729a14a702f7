package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/registry"
)

// constEnvelope builds a constant model f(y) = c over dim variables: the
// support is the dictionary's constant term, so every predicted value
// equals c regardless of the input point. The version-consistency tests use
// c to encode the version a response must have come from.
func constEnvelope(t *testing.T, dim int, c float64) *core.Envelope {
	t.Helper()
	b := basis.Linear(dim)
	return &core.Envelope{
		Model: &core.Model{M: b.Size(), Support: []int{0}, Coef: []float64{c}},
		Basis: b.Desc,
	}
}

// newEngineServer builds a server over a fresh in-memory registry with the
// prediction-engine knobs under test.
func newEngineServer(t *testing.T, cfg Config) (*registry.Registry, *Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := registry.New()
	s, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return reg, s, hs
}

// TestPredictVersionConsistencyUnderPut hammers the predict endpoint while
// new versions of the same model are concurrently published. Every response
// must be self-consistent: the values must be the ones of exactly the
// version the response names — a cached predictor served under a newer
// version label (or vice versa) would show up as a mismatch. The suite runs
// under -race via make race.
func TestPredictVersionConsistencyUnderPut(t *testing.T) {
	reg, _, hs := newEngineServer(t, Config{
		PredictCacheSize: 4,
		BatchWindow:      500 * time.Microsecond,
		BatchMaxPoints:   64,
	})
	if _, err := reg.Put("hot", constEnvelope(t, 2, 1)); err != nil {
		t.Fatal(err)
	}

	const versions = 30
	stop := make(chan struct{})
	var putWG sync.WaitGroup
	putWG.Add(1)
	go func() {
		defer putWG.Done()
		defer close(stop)
		// Version v carries coefficient float64(v): Put assigns versions
		// sequentially, so the v-th publication is version v.
		for v := 2; v <= versions; v++ {
			if _, err := reg.Put("hot", constEnvelope(t, 2, float64(v))); err != nil {
				t.Errorf("put v%d: %v", v, err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	var reqWG sync.WaitGroup
	for g := 0; g < 8; g++ {
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(hs.URL+"/v1/models/hot/predict", "application/json",
					strings.NewReader(`{"points":[[0.25,-1.5],[3,0.125]]}`))
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("predict: HTTP %d, %v", resp.StatusCode, err)
					return
				}
				if pr.Version < 1 || pr.Version > versions {
					t.Errorf("impossible version %d", pr.Version)
					return
				}
				for k, v := range pr.Values {
					if v != float64(pr.Version) {
						t.Errorf("stale mix: response names version %d but value[%d] = %g", pr.Version, k, v)
						return
					}
				}
			}
		}()
	}
	putWG.Wait()
	reqWG.Wait()
}

// TestMicroBatchCoalescesAndDemuxes drives concurrent small requests into
// one window and checks each caller gets exactly its own rows back, with
// the coalescing visible in the response and in /metrics.
func TestMicroBatchCoalescesAndDemuxes(t *testing.T) {
	reg, s, hs := newEngineServer(t, Config{
		BatchWindow:    40 * time.Millisecond,
		BatchMaxPoints: 4096,
	})
	// f(y) = 2·y0 − 3·y1 distinguishes rows, so demux mistakes are visible.
	b := basis.Linear(2)
	env := &core.Envelope{
		Model: &core.Model{M: b.Size(), Support: []int{1, 2}, Coef: []float64{2, -3}},
		Basis: b.Desc,
	}
	if _, err := reg.Put("lin", env); err != nil {
		t.Fatal(err)
	}

	const callers = 5
	type result struct {
		pr  PredictResponse
		err error
	}
	results := make([]result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"points":[[%d,1],[%d,-2]]}`, i, i)
			resp, err := http.Post(hs.URL+"/v1/models/lin/predict", "application/json", strings.NewReader(body))
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			results[i].err = json.NewDecoder(resp.Body).Decode(&results[i].pr)
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		want := []float64{2*float64(i) - 3, 2*float64(i) + 6}
		if len(r.pr.Values) != 2 || r.pr.Values[0] != want[0] || r.pr.Values[1] != want[1] {
			t.Fatalf("caller %d: values %v, want %v (demux mixed rows between callers)", i, r.pr.Values, want)
		}
		if r.pr.Coalesced > coalesced {
			coalesced = r.pr.Coalesced
		}
	}
	// All callers launched inside one 40ms window; at least some of them
	// must have shared a flush.
	if coalesced < 2 {
		t.Fatalf("no coalescing observed (max coalesced = %d)", coalesced)
	}
	snap := s.metrics.Snapshot(scrape{models: reg.Len(), cache: s.predCache.stats()})
	hist := snap["predict_coalescing"].(map[string]any)["requests_per_batch"].(map[string]any)
	if hist["count"].(int64) < 1 {
		t.Fatalf("coalescing histogram recorded no flushes: %v", hist)
	}
}

// TestMicroBatchDeadlinePerCaller is the per-row-group deadline contract: a
// coalesced batch holding one short-deadline caller times out only that
// caller; the others in the same batch still get 200s with correct values.
func TestMicroBatchDeadlinePerCaller(t *testing.T) {
	reg, s, _ := newEngineServer(t, Config{
		BatchWindow:    80 * time.Millisecond,
		BatchMaxPoints: 4096,
		RequestTimeout: -1, // per-request deadlines come from the test contexts
	})
	if _, err := reg.Put("hot", constEnvelope(t, 1, 7)); err != nil {
		t.Fatal(err)
	}

	newReq := func(ctx context.Context) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/models/hot/predict",
			strings.NewReader(`{"points":[[0.5]]}`))
		return r.WithContext(ctx)
	}
	shortCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()

	recs := make([]*httptest.ResponseRecorder, 3)
	ctxs := []context.Context{shortCtx, context.Background(), context.Background()}
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.ServeHTTP(recs[i], newReq(ctxs[i]))
		}(i)
	}
	wg.Wait()

	if recs[0].Code != http.StatusGatewayTimeout {
		t.Fatalf("short-deadline caller: HTTP %d, want 504 (body: %s)", recs[0].Code, recs[0].Body)
	}
	for i := 1; i < 3; i++ {
		if recs[i].Code != http.StatusOK {
			t.Fatalf("caller %d: HTTP %d, want 200 — one caller's deadline must not fail the batch (body: %s)",
				i, recs[i].Code, recs[i].Body)
		}
		var pr PredictResponse
		if err := json.NewDecoder(recs[i].Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Values) != 1 || pr.Values[0] != 7 {
			t.Fatalf("caller %d: values %v, want [7]", i, pr.Values)
		}
	}
}

// TestPredictorCacheHitsMissesEvictions exercises the LRU directly through
// the serving path and checks the counters end to end, including the
// Prometheus exposition.
func TestPredictorCacheHitsMissesEvictions(t *testing.T) {
	reg, s, hs := newEngineServer(t, Config{PredictCacheSize: 2})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := reg.Put(name, constEnvelope(t, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	predict := func(name string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/models/"+name+"/predict", "application/json",
			strings.NewReader(`{"points":[[0]]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s: HTTP %d", name, resp.StatusCode)
		}
	}
	predict("a") // miss, cache {a}
	predict("a") // hit
	predict("b") // miss, cache {a b}
	predict("c") // miss, evicts a, cache {b c}
	predict("a") // miss again (was evicted), evicts b
	st := s.predCache.stats()
	if st.hits != 1 || st.misses != 4 || st.evictions != 2 || st.entries != 2 {
		t.Fatalf("cache stats = %+v, want hits=1 misses=4 evictions=2 entries=2", st)
	}

	// Publishing a new version invalidates the name's cached predictors.
	if _, err := reg.Put("a", constEnvelope(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if st := s.predCache.stats(); st.entries != 1 {
		t.Fatalf("entries after invalidation = %d, want 1", st.entries)
	}

	// Counters must be visible in both exposition formats.
	resp, err := http.Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rsmd_predictor_cache_hits_total 1",
		"rsmd_predictor_cache_misses_total 4",
		"rsmd_predictor_cache_evictions_total 2",
		"rsmd_predict_coalesced_requests_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	var snap map[string]any
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pc, ok := snap["predictor_cache"].(map[string]any)
	if !ok {
		t.Fatalf("JSON metrics missing predictor_cache: %v", snap)
	}
	if pc["hits"].(float64) != 1 || pc["misses"].(float64) != 4 || pc["evictions"].(float64) != 2 {
		t.Fatalf("JSON cache counters = %v, want hits=1 misses=4 evictions=2", pc)
	}
}

// failingWriter drops the response body on the floor, simulating a client
// that vanished between the handler's evaluation and the write.
type failingWriter struct {
	http.ResponseWriter
}

func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestPredictionCounterOnlyAfterWrite is the regression test for the
// countPredictions ordering fix: a predict whose response body fails to
// write must not inflate the served-point counters, while a successful one
// counts exactly its batch size.
func TestPredictionCounterOnlyAfterWrite(t *testing.T) {
	reg, s, _ := newEngineServer(t, Config{})
	if _, err := reg.Put("hot", constEnvelope(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	predictions := func() int64 {
		snap := s.metrics.Snapshot(scrape{models: reg.Len(), cache: s.predCache.stats()})
		n, _ := snap["predictions"].(map[string]any)["hot"].(int64)
		return n
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/models/hot/predict",
		strings.NewReader(`{"points":[[0.5],[1.5]]}`))
	s.ServeHTTP(&failingWriter{httptest.NewRecorder()}, req)
	if n := predictions(); n != 0 {
		t.Fatalf("failed write counted %d served points, want 0", n)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/models/hot/predict",
		strings.NewReader(`{"points":[[0.5],[1.5]]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	if n := predictions(); n != 2 {
		t.Fatalf("successful write counted %d served points, want 2", n)
	}
}

// TestPredictCacheDisabled pins the opt-out: a negative PredictCacheSize
// serves every request through a fresh compilation, with no cache attached.
func TestPredictCacheDisabled(t *testing.T) {
	reg, s, hs := newEngineServer(t, Config{PredictCacheSize: -1})
	if s.predCache != nil {
		t.Fatal("predictor cache built despite being disabled")
	}
	if _, err := reg.Put("hot", constEnvelope(t, 1, 5)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/models/hot/predict", "application/json",
		strings.NewReader(`{"points":[[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	pr := decode[PredictResponse](t, resp)
	if len(pr.Values) != 1 || pr.Values[0] != 5 {
		t.Fatalf("values %v, want [5]", pr.Values)
	}
	var buf bytes.Buffer
	if err := s.metrics.writePrometheus(&buf, scrape{models: reg.Len(), cache: s.predCache.stats()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rsmd_predictor_cache_capacity 0") {
		t.Error("disabled cache should expose capacity 0")
	}
}
