package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/spice"
)

// readDeck loads a committed example netlist.
func readDeck(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/netlists/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// rcSpec is the rc_lowpass pipeline spec used across tests: R and C vary
// globally and locally; the response is the gain at the 1 kHz corner.
func rcSpec() Spec {
	return Spec{
		Variation: VariationSpec{
			Devices: []DeviceVar{
				{Device: "R1", Params: []string{"rwire"}, W: 1, L: 1},
				{Device: "C1", Params: []string{"cwire"}, W: 1, L: 1},
			},
			InterDieSigma: map[string]float64{"rwire": 0.05, "cwire": 0.05},
			PelgromA:      map[string]float64{"rwire": 0.02, "cwire": 0.02},
		},
		Measure:  Measure{Kind: MeasureACGainDB, Node: "out", Freq: 1000},
		Sampling: Sampling{Mode: ModeMC, Samples: 64, Seed: 7},
		Fit:      FitSpec{Degree: 2, Solvers: []string{"omp", "lar"}},
	}
}

func TestSpecValidate(t *testing.T) {
	good := rcSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Variation.Devices = nil },
		func(s *Spec) { s.Variation.Devices[0].Params = []string{"vth-ish"} },
		func(s *Spec) { s.Variation.InterDieSigma = map[string]float64{"nope": 1} },
		func(s *Spec) { s.Measure.Kind = "eye_diagram" },
		func(s *Spec) { s.Measure.Node = "" },
		func(s *Spec) { s.Measure.Edge = "sideways" },
		func(s *Spec) { s.Measure.Freq = 0 },
		func(s *Spec) { s.Sampling.Mode = "exhaustive" },
		func(s *Spec) { s.Sampling.MaxSamples = 8; s.Sampling.Samples = 64 },
		func(s *Spec) { s.Fit.Degree = 9 },
		func(s *Spec) { s.Fit.Folds = 1 },
		func(s *Spec) { s.Fit.Solvers = []string{"omp", "OMP"} },
		func(s *Spec) { s.Fit.Solvers = []string{"sgd"} },
	}
	for i, mut := range bad {
		s := rcSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSimulatorRCLowpass(t *testing.T) {
	nl, err := spice.ParseNetlist(strings.NewReader(readDeck(t, "rc_lowpass.cir")))
	if err != nil {
		t.Fatal(err)
	}
	spec := rcSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(nl, &spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 global + 2 local factors.
	if sim.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", sim.Dim())
	}
	// Nominal circuit: |H| at the 1 kHz corner is 1/√2 ≈ -3.01 dB.
	v, err := sim.Evaluate(make([]float64, sim.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-(-3.0103)) > 0.05 {
		t.Errorf("nominal gain = %.4f dB, want ≈ -3.01", v[0])
	}
	// A +1σ global R shift moves the corner down; gain at 1 kHz drops.
	dy := make([]float64, sim.Dim())
	dy[0] = 1 // first factor is global/RWIRE (deterministic factor order)
	vp, err := sim.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	if vp[0] >= v[0] {
		t.Errorf("gain with +R shift %.4f not below nominal %.4f", vp[0], v[0])
	}
}

func TestSimulatorSpecErrors(t *testing.T) {
	nl, err := spice.ParseNetlist(strings.NewReader(readDeck(t, "rc_lowpass.cir")))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown device", func(s *Spec) { s.Variation.Devices[0].Device = "R9" }},
		{"kind/card mismatch", func(s *Spec) { s.Variation.Devices[0].Params = []string{"vth"} }},
		{"unknown node", func(s *Spec) { s.Measure.Node = "vout" }},
		{"missing analysis", func(s *Spec) { s.Measure = Measure{Kind: MeasureTranDelay, Node: "out", Threshold: 0.5} }},
	}
	for _, tc := range cases {
		s := rcSpec()
		tc.mut(&s)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: spec-level validation rejected: %v", tc.name, err)
		}
		if _, err := NewSimulator(nl, &s); err == nil {
			t.Errorf("%s: NewSimulator accepted bad spec", tc.name)
		}
	}
}

func TestRunMC(t *testing.T) {
	reg := registry.New()
	var events []StageEvent
	res, err := Run(context.Background(), Request{
		Name: "rc-gain", Netlist: readDeck(t, "rc_lowpass.cir"), Spec: rcSpec(),
	}, Options{Registry: reg, Observer: func(ev StageEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry == nil || res.Entry.Name != "rc-gain" || res.Entry.Version != 1 {
		t.Fatalf("bad entry: %+v", res.Entry)
	}
	if res.Samples != 64 || res.Dim != 4 {
		t.Errorf("samples=%d dim=%d, want 64/4", res.Samples, res.Dim)
	}
	if res.SimSeconds <= 0 {
		t.Errorf("SimSeconds = %g, want > 0", res.SimSeconds)
	}
	if len(res.Trials) != 2 {
		t.Errorf("trials = %+v, want 2", res.Trials)
	}
	// The low-order response should fit tightly.
	if res.CVError > 0.05 {
		t.Errorf("cv error %.3f, want < 5%%", res.CVError)
	}
	var stages []string
	for _, ev := range events {
		if ev.Err != nil {
			t.Errorf("stage %s failed: %v", ev.Stage, ev.Err)
		}
		stages = append(stages, ev.Stage)
	}
	want := strings.Join(Stages, ",")
	if got := strings.Join(stages, ","); got != want {
		t.Errorf("stage order %s, want %s", got, want)
	}
	// Provenance carries the pipeline record.
	prov := res.Entry.Envelope.Prov
	if prov.Source != "pipeline" || prov.Pipeline == nil {
		t.Fatalf("provenance missing pipeline record: %+v", prov)
	}
	if prov.Pipeline.Mode != ModeMC || prov.Pipeline.NetlistSHA256 == "" || len(prov.Pipeline.Trials) != 2 {
		t.Errorf("bad pipeline provenance: %+v", prov.Pipeline)
	}
}

func TestRunAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sampling loop")
	}
	spec := Spec{}
	if err := json.Unmarshal([]byte(readDeck(t, "sram_readslice_pipeline.json")), &spec); err != nil {
		t.Fatal(err)
	}
	spec.Sampling.Samples, spec.Sampling.MaxSamples = 16, 64
	reg := registry.New()
	res, err := Run(context.Background(), Request{
		Name: "sram-read-delay", Netlist: readDeck(t, "sram_readslice.cir"), Spec: spec,
	}, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.Samples < 16 {
		t.Errorf("rounds=%d samples=%d", res.Rounds, res.Samples)
	}
	if res.Entry == nil || reg.Len() != 1 {
		t.Fatalf("model not published")
	}
	if res.Metric != "tran_delay(bl)" {
		t.Errorf("metric = %q", res.Metric)
	}
}

// TestRunAdaptiveSpansPerRound: each adaptive round is one cross-validation,
// so the sample stage's trace holds one span per fold and one final per
// round, and a round's spans end before the next round's open.
func TestRunAdaptiveSpansPerRound(t *testing.T) {
	spec := rcSpec()
	spec.Sampling = Sampling{Mode: ModeAdaptive, Samples: 32, MaxSamples: 64, Seed: 7}
	spec.Fit.Solvers = []string{"omp"}
	st := trace.NewStore(trace.Config{Capacity: 4})
	ctx, root := st.StartRoot(context.Background(), "pipeline")
	res, err := Run(ctx, Request{
		Name: "rc-gain", Netlist: readDeck(t, "rc_lowpass.cir"), Spec: spec,
	}, Options{Registry: registry.New()})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (32 then 64 samples)", res.Rounds)
	}
	d, ok := st.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	var sampleID string
	for _, r := range d.Spans {
		if r.Name == "stage."+StageSample {
			sampleID = r.SpanID
		}
	}
	byLabel := make(map[string][]trace.Record)
	for _, r := range d.Spans {
		if r.ParentID == sampleID {
			byLabel[r.Name] = append(byLabel[r.Name], r)
		}
	}
	for _, label := range []string{"cv-fold-0", "cv-fold-1", "cv-fold-2", "cv-fold-3", "final"} {
		spans := byLabel[label]
		if len(spans) != res.Rounds {
			t.Errorf("%s: %d spans under the sample stage, want one per round (%d)", label, len(spans), res.Rounds)
			continue
		}
		if end := spans[0].Start.Add(spans[0].Duration); end.After(spans[1].Start) {
			t.Errorf("%s: the first round's span ends at %s, after the second's starts at %s", label, end, spans[1].Start)
		}
	}
	if len(byLabel) != 5 {
		t.Errorf("span labels under the sample stage %v, want four folds and final", byLabel)
	}
}

func TestRunCancelDuringSampling(t *testing.T) {
	// An armed delay at pipeline.sim holds every simulator call; cancel must
	// cut through it promptly and publish nothing.
	if err := faultinject.Configure("pipeline.sim=delay:10s"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	reg := registry.New()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Request{
		Name: "rc-gain", Netlist: readDeck(t, "rc_lowpass.cir"), Spec: rcSpec(),
	}, Options{Registry: reg, SimWorkers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %s", d)
	}
	if reg.Len() != 0 {
		t.Errorf("canceled run published %d models", reg.Len())
	}
}

func TestRunSimulatorFault(t *testing.T) {
	if err := faultinject.Configure("pipeline.sim=error:flaky simulator"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	reg := registry.New()
	var failed StageEvent
	_, err := Run(context.Background(), Request{
		Name: "rc-gain", Netlist: readDeck(t, "rc_lowpass.cir"), Spec: rcSpec(),
	}, Options{Registry: reg, Observer: func(ev StageEvent) {
		if ev.Err != nil {
			failed = ev
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "flaky simulator") {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if failed.Stage != StageSample {
		t.Errorf("failing stage = %q, want %q", failed.Stage, StageSample)
	}
	if reg.Len() != 0 {
		t.Errorf("failed run published %d models", reg.Len())
	}
}

func TestRunParseErrorCarriesLine(t *testing.T) {
	_, err := Run(context.Background(), Request{
		Name: "x", Netlist: "V1 in 0 DC 1\nR1 in out oops\n", Spec: rcSpec(),
	}, Options{Registry: registry.New()})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want parse error naming line 2", err)
	}
}
