package server

import (
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestBackgroundFanOutLeavesACore pins the daemon's in-job fan-out rule:
// unset FitParallel and SimWorkers both resolve to max(1, GOMAXPROCS−1),
// explicit values win, the rsmd_fit_parallel_workers gauge reports the
// effective value, and pipeline jobs run their fits at that same value.
func TestBackgroundFanOutLeavesACore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		cfg := Config{}.withDefaults()
		want := max(1, procs-1)
		if cfg.FitParallel != want || cfg.SimWorkers != want {
			t.Errorf("GOMAXPROCS=%d: FitParallel=%d SimWorkers=%d, want %d for both", procs, cfg.FitParallel, cfg.SimWorkers, want)
		}
		cfg = Config{FitParallel: 5, SimWorkers: 7}.withDefaults()
		if cfg.FitParallel != 5 || cfg.SimWorkers != 7 {
			t.Errorf("GOMAXPROCS=%d: explicit FitParallel=%d SimWorkers=%d, want 5 and 7", procs, cfg.FitParallel, cfg.SimWorkers)
		}
	}

	// GOMAXPROCS 4 makes the rule observable on any host: 3, not 4.
	runtime.GOMAXPROCS(4)
	const want = 3
	s, hs := newTestServer(t, Config{})
	if s.cfg.SimWorkers != want {
		t.Errorf("server SimWorkers = %d, want %d", s.cfg.SimWorkers, want)
	}
	if got := promGauge(t, hs.URL, "rsmd_fit_parallel_workers"); got != want {
		t.Errorf("rsmd_fit_parallel_workers = %d, want %d", got, want)
	}
	id := submitPipeline(t, hs.URL, pipelineBody(t, "rc-gain", "rc_lowpass.cir", "rc_lowpass_pipeline.json"))
	st := waitTerminal(t, hs.URL, id, 2*time.Minute)
	if st.State != JobDone {
		t.Fatalf("pipeline state %s (error %q)", st.State, st.Error)
	}
	if len(st.Events) == 0 {
		t.Fatal("pipeline job recorded no fit events")
	}
	for _, ev := range st.Events {
		if ev.ParallelWorkers != want {
			t.Fatalf("pipeline fit event %s/%d ran at %d workers, want %d", ev.Stage, ev.Iter, ev.ParallelWorkers, want)
		}
	}

	_, explicit := newTestServer(t, Config{FitParallel: 2})
	if got := promGauge(t, explicit.URL, "rsmd_fit_parallel_workers"); got != 2 {
		t.Errorf("explicit FitParallel: rsmd_fit_parallel_workers = %d, want 2", got)
	}
}

// promGauge scrapes one unlabeled integer gauge from the Prometheus
// exposition.
func promGauge(t *testing.T, baseURL, name string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}
