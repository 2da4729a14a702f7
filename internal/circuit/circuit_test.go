package circuit

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/variation"
)

func TestOpAmpDimensionMatchesPaper(t *testing.T) {
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	if o.Dim() != 630 {
		t.Fatalf("OpAmp Dim = %d, want 630 (paper Section V-A)", o.Dim())
	}
	want := []string{"gain", "bandwidth", "power", "offset"}
	got := o.Metrics()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOpAmpNominalValuesPlausible(t *testing.T) {
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Evaluate(make([]float64, o.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	gain, bw, power, offset := m[0], m[1], m[2], m[3]
	if gain < 100 || gain > 1e5 {
		t.Errorf("nominal gain %g outside plausible range", gain)
	}
	if bw < 1e6 || bw > 1e10 {
		t.Errorf("nominal bandwidth %g Hz outside plausible range", bw)
	}
	if power < 1e-6 || power > 1e-3 {
		t.Errorf("nominal power %g W outside plausible range", power)
	}
	if math.Abs(offset) > 1e-6 {
		t.Errorf("nominal offset %g, want ≈0 for a matched amplifier", offset)
	}
}

func TestOpAmpDeterministic(t *testing.T) {
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	dy := src.NormVec(nil, o.Dim())
	a, err := o.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Evaluate is not deterministic at metric %d", i)
		}
	}
}

func TestOpAmpOffsetDominatedByInputPair(t *testing.T) {
	// The paper: "the offset of the OpAmp is mainly determined by the device
	// mismatches of the input differential pair". Verify that perturbing
	// M1's local VTH factor moves offset far more than a wire factor does.
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, o.Dim())
	ref, err := o.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	// Find M1's local VTH factor and a wire factor via names.
	m1Factor, wireFactor := -1, -1
	for f := 0; f < o.Dim(); f++ {
		switch o.Space().FactorName(f) {
		case "local/M1/VTH":
			m1Factor = f
		case "local/W0/RWIRE":
			wireFactor = f
		}
	}
	if m1Factor == -1 || wireFactor == -1 {
		t.Fatal("expected factors not found")
	}
	perturb := func(f int) float64 {
		dy := make([]float64, o.Dim())
		dy[f] = 3
		m, err := o.Evaluate(dy)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(m[3] - ref[3])
	}
	dM1 := perturb(m1Factor)
	dWire := perturb(wireFactor)
	if dM1 < 100*dWire {
		t.Errorf("offset sensitivity: input pair %g vs wire %g — expected ≥100× dominance", dM1, dWire)
	}
}

func TestOpAmpVariabilitySpread(t *testing.T) {
	// Monte Carlo: each metric must actually vary (nonzero sigma) and stay
	// finite.
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	const n = 300
	vals := make([][]float64, 4)
	dy := make([]float64, o.Dim())
	for i := 0; i < n; i++ {
		src.NormVec(dy, o.Dim())
		m, err := o.Evaluate(dy)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("metric %d is %g", j, v)
			}
			vals[j] = append(vals[j], v)
		}
	}
	for j, name := range o.Metrics() {
		sd := stats.StdDev(vals[j])
		mean := stats.Mean(vals[j])
		if sd == 0 {
			t.Errorf("%s has zero variability", name)
		}
		if name != "offset" {
			if cv := sd / math.Abs(mean); cv < 0.001 || cv > 0.5 {
				t.Errorf("%s coefficient of variation %g outside [0.001, 0.5]", name, cv)
			}
		}
	}
}

func TestSRAMDimFormula(t *testing.T) {
	if d := PaperSRAMConfig().Dim(); d != 21310 {
		t.Errorf("paper config Dim = %d, want 21310", d)
	}
	if d := DefaultSRAMConfig().Dim(); d != 1058 {
		t.Errorf("default config Dim = %d, want 1058", d)
	}
}

func testSRAM(t *testing.T) *SRAM {
	t.Helper()
	s, err := NewSRAM(SRAMConfig{Rows: 4, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSRAMSpaceMatchesConfig(t *testing.T) {
	s := testSRAM(t)
	if s.Dim() != s.cfg.Dim() {
		t.Fatalf("Dim %d != config %d", s.Dim(), s.cfg.Dim())
	}
}

func TestSRAMNominalDelay(t *testing.T) {
	s := testSRAM(t)
	m, err := s.Evaluate(make([]float64, s.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	delay := m[0]
	if delay < 10e-12 || delay > 2.5e-9 {
		t.Errorf("nominal read delay %g s outside plausible (10ps, 2.5ns)", delay)
	}
}

func TestSRAMDelayRespondsToAccessDevice(t *testing.T) {
	// Raising the access transistor VT (slower discharge) must increase the
	// delay; an off-column cell VT shift must have (near-)zero effect.
	s := testSRAM(t)
	base, err := s.Evaluate(make([]float64, s.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	accFactor, farCellFactor := -1, -1
	for f := 0; f < s.Dim(); f++ {
		name := s.Space().FactorName(f)
		if name == "local/MACC/VTH" {
			accFactor = f
		}
		// The last cell belongs to a non-accessed column.
		if name == "local/CELL10/acc/VTH" {
			farCellFactor = f
		}
	}
	if accFactor == -1 || farCellFactor == -1 {
		t.Fatal("expected factors not found")
	}
	dy := make([]float64, s.Dim())
	dy[accFactor] = 3
	slow, err := s.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	if slow[0] <= base[0] {
		t.Errorf("higher access VT gave delay %g ≤ nominal %g", slow[0], base[0])
	}
	dy[accFactor] = 0
	dy[farCellFactor] = 3
	far, err := s.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	onPath := math.Abs(slow[0] - base[0])
	offPath := math.Abs(far[0] - base[0])
	if offPath > onPath/50 {
		t.Errorf("off-column cell influence %g not ≪ on-path influence %g", offPath, onPath)
	}
}

func TestSRAMMonteCarloVariability(t *testing.T) {
	s := testSRAM(t)
	src := rng.New(7)
	const n = 12
	var delays []float64
	dy := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		src.NormVec(dy, s.Dim())
		m, err := s.Evaluate(dy)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		delays = append(delays, m[0])
	}
	if sd := stats.StdDev(delays); sd == 0 {
		t.Error("read delay has zero variability")
	}
}

func TestSRAMConfigValidation(t *testing.T) {
	if _, err := NewSRAM(SRAMConfig{Rows: 1, Cols: 1}); err == nil {
		t.Error("degenerate config must error")
	}
}

func TestSyntheticOracleRecovery(t *testing.T) {
	syn, err := NewSynthetic(9, 40, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Dim() != 40 {
		t.Fatalf("Dim = %d", syn.Dim())
	}
	// Evaluate at points and confirm it matches the oracle model exactly
	// (no noise).
	src := rng.New(10)
	dy := src.NormVec(nil, 40)
	got, err := syn.Evaluate(dy)
	if err != nil {
		t.Fatal(err)
	}
	want := syn.TrueModel().PredictPoint(syn.b, dy)
	if got[0] != want {
		t.Errorf("Evaluate = %g, oracle = %g", got[0], want)
	}
}

// TestSyntheticNoiseIsPure: the observation noise is a function of the
// point, so repeated and concurrent evaluations at one point agree, while
// distinct points draw distinct noise.
func TestSyntheticNoiseIsPure(t *testing.T) {
	syn, err := NewSynthetic(11, 10, 2, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dy := make([]float64, 10)
	a, _ := syn.Evaluate(dy)
	truth := syn.TrueModel().PredictPoint(syn.b, dy)
	if a[0] == truth {
		t.Fatal("noisy evaluation equals the ground truth")
	}
	done := make(chan float64)
	for i := 0; i < 4; i++ {
		go func() {
			v, _ := syn.Evaluate(dy)
			done <- v[0]
		}()
	}
	for i := 0; i < 4; i++ {
		if v := <-done; math.Float64bits(v) != math.Float64bits(a[0]) {
			t.Fatalf("evaluation %v differs from the first, %v, at the same point", v, a[0])
		}
	}
	dy[3] = math.Nextafter(0, 1)
	b, _ := syn.Evaluate(dy)
	if b[0]-syn.TrueModel().PredictPoint(syn.b, dy) == a[0]-truth {
		t.Error("points one ulp apart drew the same noise")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(1, 0, 1, 1, 0); err == nil {
		t.Error("dim=0 must error")
	}
	if _, err := NewSynthetic(1, 3, 1, 100, 0); err == nil {
		t.Error("nnz > dictionary must error")
	}
}

func TestSimulatorDimChecks(t *testing.T) {
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Evaluate(make([]float64, 3)); err == nil {
		t.Error("wrong factor length must error")
	}
}

func TestOpAmpSpaceSigmaPositive(t *testing.T) {
	o, err := NewOpAmp()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a few devices for a nonzero VTH weight on some factor.
	sp := o.Space()
	unit := make([]float64, sp.Dim())
	for d := 0; d < 3; d++ {
		varies := false
		for f := range unit {
			unit[f] = 1
			varies = varies || sp.Delta(d, variation.VTH, unit) != 0
			unit[f] = 0
		}
		if !varies {
			t.Errorf("device %d has zero VTH sigma", d)
		}
	}
}
