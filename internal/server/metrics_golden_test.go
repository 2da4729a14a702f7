package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics_*.golden from the current /metrics renderers")

// jsonAdditions are flattened JSON-view lines a renderer may emit beyond
// the golden files: series the Prometheus view already showed, now also in
// the JSON view.
var jsonAdditions = map[string]bool{
	"cluster.forwards.delete = 0":   true,
	"cluster.forwards.fit = 0":      true,
	"cluster.forwards.info = 0":     true,
	"cluster.forwards.pipeline = 0": true,
	"cluster.forwards.predict = 0":  true,
	"cluster.forwards.refine = 0":   true,
	"cluster.forwards.upload = 0":   true,
	"cluster.forwards.yield = 0":    true,
}

// TestMetricsExpositionGolden renders both /metrics views for two fixed
// states and compares them with the files under testdata/. The Prometheus
// view must match byte for byte. The JSON view is compared as flattened
// "path = value" lines: every golden line must be present (an empty
// object may gain members), and any other line must be listed in
// jsonAdditions. Only values that move with the
// clock or the toolchain are masked: uptime, the runtime gauges, the Go
// version and exemplar timestamps.
func TestMetricsExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state func() (*metrics, scrape)
	}{
		{"fresh", func() (*metrics, scrape) { return newMetrics(), scrape{} }},
		{"populated", populatedMetrics},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, in := tc.state()
			var prom bytes.Buffer
			if err := m.writePrometheus(&prom, in); err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(m.Snapshot(in))
			if err != nil {
				t.Fatal(err)
			}
			gotProm := maskProm(prom.String())
			gotJSON := flattenJSON(t, raw)

			promPath := filepath.Join("testdata", "metrics_"+tc.name+".prom.golden")
			jsonPath := filepath.Join("testdata", "metrics_"+tc.name+".json.golden")
			if *updateMetricsGolden {
				writeGolden(t, promPath, gotProm)
				writeGolden(t, jsonPath, strings.Join(gotJSON, "\n")+"\n")
				return
			}
			if want := readGolden(t, promPath); gotProm != want {
				t.Errorf("Prometheus view differs from %s:\n%s", promPath, lineDiff(want, gotProm))
			}
			want := strings.Split(strings.TrimSuffix(readGolden(t, jsonPath), "\n"), "\n")
			have := make(map[string]bool, len(gotJSON))
			for _, l := range gotJSON {
				have[l] = true
			}
			golden := make(map[string]bool, len(want))
			for _, l := range want {
				golden[l] = true
				if !have[l] && !hasObject(gotJSON, l) {
					t.Errorf("JSON view lost %q", l)
				}
			}
			for _, l := range gotJSON {
				if !golden[l] && !jsonAdditions[l] {
					t.Errorf("JSON view gained unlisted %q", l)
				}
			}
		})
	}
}

// populatedMetrics builds a state in which every family has data: routes
// with an exemplar, two models, every job kind in every terminal state,
// both refit outcomes, checkpoints, journal tallies, forwards on some
// kinds, every histogram, a two-peer cluster and trace stats.
func populatedMetrics() (*metrics, scrape) {
	m := newMetrics()
	m.fitParallel = 3
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

	m.observe("GET /healthz", 200, ms(0.4), "")
	m.observe("POST /v1/models/{name}/predict", 200, ms(3), "trace-predict")
	m.observe("POST /v1/models/{name}/predict", 200, ms(2), "")
	m.observe("POST /v1/models/{name}/predict", 422, ms(40), "")
	m.observe("POST /v1/fit", 503, 20*time.Second, "")
	m.countPredictions("alpha", 5)
	m.countPredictions("beta.v2", 7)

	for _, k := range jobKinds {
		for i, state := range []string{JobDone, JobFailed, JobCanceled, JobTimedOut} {
			for n := 0; n <= i; n++ {
				m.countSubmitted(k.name)
				m.countJobEnd(k.name, state)
			}
		}
		m.countSubmitted(k.name)
	}
	m.add(refitsImproved, 1)
	m.add(refitsImproved, 1)
	m.add(refitsRejected, 1)
	m.observeRefineFit(ms(120), true)
	m.observeRefineFit(ms(900), false)
	m.setCheckpointBytes("alpha", 4096)
	m.setCheckpointBytes("beta.v2", 123)

	m.add(pipelinesActive, 1)
	m.add(pipelinesActive, 1)
	m.add(pipelinesActive, -1)
	for i, stage := range pipeline.Stages {
		m.observePipelineStage(stage, 0.002*float64(i+1), 40)
	}
	m.observeCoalesced(1, 1)
	m.observeCoalesced(5, 300)

	m.add(panicsRecovered, 1)
	m.add(requestsShed, 1)
	m.add(requestsShed, 1)
	m.observeJournalAppend(ms(0.3), nil)
	m.observeJournalAppend(ms(7), nil)
	m.observeJournalAppend(ms(1), errors.New("no space left on device"))
	m.add(jobsReplayed, 4)
	m.add(jobsRecovered, 2)
	m.add(jobsQuarantined, 1)

	m.countForward("fit")
	m.countForward("predict")
	m.countForward("predict")
	m.add(forwardErrors, 1)
	m.add(redirects, 1)
	m.add(redirects, 1)
	m.add(replicaReads, 1)

	m.queueWait.Observe(ms(0.5).Seconds())
	m.queueWait.Observe(ms(2500).Seconds())
	m.observeFit(ms(80), 12, "trace-fit")
	m.observeFit(ms(3000), 40, "")

	return m, scrape{
		models:     2,
		queueDepth: 3,
		cache:      cacheStats{hits: 11, misses: 4, evictions: 1, entries: 3, capacity: 64},
		jnl:        journalStatus{enabled: true, degraded: true},
		traces: trace.Stats{
			Enabled: true, Stored: 17, Open: 2, Capacity: 256,
			SlowThresholdSeconds: 0.25, SampleRate: 0.1,
			Kept: 19, SampledOut: 40, Evicted: 2,
		},
		node: "s0",
		cluster: &cluster.Stats{
			Syncs: 30, SyncErrors: 2, VersionsPulled: 9, CheckpointsPulled: 4, TombstonesApplied: 1,
			Peers: []cluster.Status{
				{Name: "s1", URL: "http://10.0.0.2:8642", Healthy: true,
					LastSync: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)},
				{Name: "s2", URL: "http://10.0.0.3:8642", Failures: 3, LagVersions: 5},
			},
		},
	}
}

// promMasked are the Prometheus sample names whose values move with the
// clock or the runtime.
var promMasked = []string{
	"rsmd_uptime_seconds", "rsmd_goroutines", "rsmd_heap_alloc_bytes",
	"rsmd_heap_sys_bytes", "rsmd_gc_pause_seconds_total", "rsmd_gc_cycles_total",
}

var (
	goVersionLabelRE = regexp.MustCompile(`go_version="[^"]*"`)
	exemplarTimeRE   = regexp.MustCompile(`(# \{trace_id="[^"]*"\} \S+) \S+$`)
)

// maskProm blanks the clock- and toolchain-dependent parts of an
// exposition.
func maskProm(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		l = goVersionLabelRE.ReplaceAllString(l, `go_version="<masked>"`)
		l = exemplarTimeRE.ReplaceAllString(l, "$1 <masked>")
		for _, name := range promMasked {
			if strings.HasPrefix(l, name+" ") {
				l = name + " <masked>"
			}
		}
		lines[i] = l
	}
	return strings.Join(lines, "\n")
}

// jsonMasked are the JSON-view paths, or path prefixes ending in ".",
// whose values move with the clock or the toolchain.
var jsonMasked = []string{"uptime_seconds", "build.go_version", "runtime."}

// flattenJSON renders a JSON document as sorted "path = value" lines, one
// per leaf. Keys holding a dot are quoted, numbers keep their literal
// text, and empty objects and arrays are leaves.
func flattenJSON(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if len(v) == 0 {
				out = append(out, path+" = {}")
			}
			for k, x := range v {
				if strings.Contains(k, ".") {
					k = strconv.Quote(k) // keep "beta.v2" one key, not two levels
				}
				walk(strings.TrimPrefix(path+"."+k, "."), x)
			}
		case []any:
			if len(v) == 0 {
				out = append(out, path+" = []")
			}
			for i, x := range v {
				walk(fmt.Sprintf("%s.%d", path, i), x)
			}
		default:
			val, _ := json.Marshal(v)
			for _, p := range jsonMasked {
				if path == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(path, p)) {
					val = []byte(`"<masked>"`)
				}
			}
			out = append(out, path+" = "+string(val))
		}
	}
	walk("", doc)
	sort.Strings(out)
	return out
}

// hasObject reports whether a golden "path = {}" line is met by lines
// that fill the object at path: the golden asked for an object there, and
// additions may populate it.
func hasObject(lines []string, golden string) bool {
	path, ok := strings.CutSuffix(golden, " = {}")
	if !ok {
		return false
	}
	for _, l := range lines {
		if strings.HasPrefix(l, path+".") {
			return true
		}
	}
	return false
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-metrics-golden to record)", err)
	}
	return string(b)
}

func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineDiff lists the first lines where want and got part ways.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i, shown := 0, 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
			if shown++; shown == 5 {
				break
			}
		}
	}
	return b.String()
}

// TestMetricsObserveZeroAlloc guards the per-request accounting on the
// predict hot path: recording a request against an already-seen route
// allocates nothing, with or without a trace ID.
func TestMetricsObserveZeroAlloc(t *testing.T) {
	m := newMetrics()
	m.observe("POST /v1/models/{name}/predict", 200, time.Millisecond, "trace-seed")
	for _, traceID := range []string{"", "trace-0123456789abcdef"} {
		allocs := testing.AllocsPerRun(200, func() {
			m.observe("POST /v1/models/{name}/predict", 200, 2*time.Millisecond, traceID)
		})
		if allocs != 0 {
			t.Errorf("observe(traceID=%q) allocates %v times per call, want 0", traceID, allocs)
		}
	}
}
