package obs

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNewRequestIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if SanitizeRequestID(id) != id {
			t.Fatalf("generated id %q does not survive sanitization", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-123_x.y:z", "abc-123_x.y:z"},
		{"", ""},
		{"has space", ""},
		{"newline\n", ""},
		{`quote"`, ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
	}
	for _, tc := range cases {
		if got := SanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context should carry no request id")
	}
	ctx = WithRequestID(ctx, "req-1")
	if got := RequestID(ctx); got != "req-1" {
		t.Fatalf("RequestID = %q, want req-1", got)
	}
}

func TestLogContextFallsBackToDefault(t *testing.T) {
	if Log(context.Background()) != slog.Default() {
		t.Fatal("bare context should yield slog.Default")
	}
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, "text")
	ctx := WithLogger(context.Background(), l)
	Log(ctx).Info("hello", "request_id", "r1")
	if out := buf.String(); !strings.Contains(out, "request_id=r1") {
		t.Fatalf("log line %q missing request_id attr", out)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
}

func TestHistogramCumulativeSnapshot(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCum := []int64{1, 3, 4, 5}
	if len(s.Cumulative) != len(wantCum) {
		t.Fatalf("cumulative %v, want %v", s.Cumulative, wantCum)
	}
	for i, w := range wantCum {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative %v, want %v", s.Cumulative, wantCum)
		}
	}
	if s.Count != 5 || s.Sum != 56.05 {
		t.Fatalf("count %d sum %g, want 5, 56.05", s.Count, s.Sum)
	}
	buckets := s.JSONBuckets()
	if buckets["le_0.1"] != 1 || buckets["le_1"] != 3 || buckets["le_10"] != 4 || buckets["le_inf"] != 5 {
		t.Fatalf("JSON buckets %v are not cumulative", buckets)
	}
}

func TestHistogramBoundaryGoesIntoLowerBucket(t *testing.T) {
	// le semantics: an observation equal to a bound belongs to that bucket.
	h := NewHistogram(1, 2)
	h.Observe(1)
	s := h.Snapshot()
	if s.Cumulative[0] != 1 {
		t.Fatalf("observation at bound 1 landed outside le=1: %v", s.Cumulative)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 || s.Cumulative[0] != 8000 {
		t.Fatalf("concurrent count %d / %v, want 8000", s.Count, s.Cumulative)
	}
}

func TestCumulativeSnapshotFromRawCounts(t *testing.T) {
	s := CumulativeSnapshot([]float64{1, 2}, []int64{3, 0, 2}, 7.5)
	if s.Count != 5 || s.Cumulative[0] != 3 || s.Cumulative[1] != 3 || s.Cumulative[2] != 5 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestPromWriterEmitsValidExposition(t *testing.T) {
	h := NewHistogram(0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Meta("test_requests_total", "counter", "Requests served.")
	pw.Sample("test_requests_total", Labels("route", `GET /v1/models`), 42)
	pw.Meta("test_goroutines", "gauge", "Live goroutines.")
	pw.Sample("test_goroutines", "", 7)
	pw.Meta("test_latency_seconds", "histogram", "Latency with \"quotes\" and back\\slash.")
	pw.Histogram("test_latency_seconds", Label("route", "POST /v1/fit"), h.Snapshot())
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, `test_requests_total{route="GET /v1/models"} 42`) {
		t.Fatalf("missing labeled counter in:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_bucket{route="POST /v1/fit",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket in:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("writer output fails validation: %v\n%s", err, out)
	}
}

func TestValidateExpositionCatchesMalformedLines(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no type", "foo 1\n"},
		{"bad name", "# TYPE 9foo counter\n9foo 1\n"},
		{"bad type", "# TYPE foo barometer\nfoo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo one\n"},
		{"garbage line", "# TYPE foo counter\nfoo{ 1\n"},
		{"duplicate type", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\n"},
		{"missing inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 8` + "\n"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 4\n"},
		{"le not ascending", "# TYPE h histogram\n" +
			`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: validator accepted malformed exposition:\n%s", tc.name, tc.text)
		}
	}
}

func TestValidateExpositionAcceptsWellFormed(t *testing.T) {
	text := `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# TYPE lat histogram
lat_bucket{le="0.1"} 2
lat_bucket{le="+Inf"} 4
lat_sum 1.5
lat_count 4
# TYPE inf_gauge gauge
inf_gauge +Inf
`
	if err := ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("name", "a\"b\\c\nd")
	want := `name="a\"b\\c\nd"`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
	labels, err := parseLabels(got)
	if err != nil {
		t.Fatal(err)
	}
	if labels["name"] != `a\"b\\c\nd` {
		t.Fatalf("round trip %q", labels["name"])
	}
}

func TestFormatValue(t *testing.T) {
	if FormatValue(math.Inf(1)) != "+Inf" || FormatValue(math.Inf(-1)) != "-Inf" || FormatValue(math.NaN()) != "NaN" {
		t.Fatal("special float spellings wrong")
	}
	if FormatValue(0.25) != "0.25" {
		t.Fatalf("FormatValue(0.25) = %s", FormatValue(0.25))
	}
}

func TestReadRuntimeStats(t *testing.T) {
	s := ReadRuntimeStats()
	if s.Goroutines < 1 || s.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime stats %+v", s)
	}
}
