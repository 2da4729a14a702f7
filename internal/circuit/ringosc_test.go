package circuit

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestRingOscillatorNominalPeriod(t *testing.T) {
	ro, err := NewRingOscillator(5)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Dim() != 4+4*5 {
		t.Fatalf("Dim = %d, want 24", ro.Dim())
	}
	m, err := ro.Evaluate(make([]float64, ro.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	period := m[0]
	if period < 50e-12 || period > 5e-9 {
		t.Errorf("nominal period %g s outside plausible (50ps, 5ns)", period)
	}
}

func TestRingOscillatorMoreStagesSlower(t *testing.T) {
	p := func(stages int) float64 {
		ro, err := NewRingOscillator(stages)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ro.Evaluate(make([]float64, ro.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		return m[0]
	}
	p5, p9 := p(5), p(9)
	// Period scales ≈ linearly with stage count: 9 stages ≈ 1.8× slower.
	if p9 < 1.4*p5 {
		t.Errorf("9-stage period %g not ≫ 5-stage %g", p9, p5)
	}
}

func TestRingOscillatorEveryStageMatters(t *testing.T) {
	// The dense-coefficient negative control: perturbing ANY stage's NMOS
	// VT must shift the period by a comparable amount (same order).
	ro, err := NewRingOscillator(5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ro.Evaluate(make([]float64, ro.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	var effects []float64
	for stage := 0; stage < 5; stage++ {
		name := "local/MN" + string(rune('0'+stage)) + "/VTH"
		idx := -1
		for f := 0; f < ro.Dim(); f++ {
			if ro.space.FactorName(f) == name {
				idx = f
			}
		}
		if idx == -1 {
			t.Fatalf("factor %s not found", name)
		}
		dy := make([]float64, ro.Dim())
		dy[idx] = 3
		m, err := ro.Evaluate(dy)
		if err != nil {
			t.Fatal(err)
		}
		effects = append(effects, math.Abs(m[0]-base[0]))
	}
	min, max := effects[0], effects[0]
	for _, e := range effects {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if min <= 0 {
		t.Fatalf("some stage has zero effect: %v", effects)
	}
	if max/min > 6 {
		t.Errorf("stage effects differ by %.1f× — expected comparable influence: %v", max/min, effects)
	}
}

func TestRingOscillatorVariability(t *testing.T) {
	ro, err := NewRingOscillator(5)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(33)
	var periods []float64
	dy := make([]float64, ro.Dim())
	for i := 0; i < 8; i++ {
		src.NormVec(dy, ro.Dim())
		m, err := ro.Evaluate(dy)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		periods = append(periods, m[0])
	}
	if stats.StdDev(periods) == 0 {
		t.Error("period shows no variability")
	}
}

func TestRingOscillatorValidation(t *testing.T) {
	if _, err := NewRingOscillator(4); err == nil {
		t.Error("even stage count must error")
	}
	if _, err := NewRingOscillator(1); err == nil {
		t.Error("single stage must error")
	}
}
