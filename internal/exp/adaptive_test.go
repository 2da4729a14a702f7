package exp

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/circuit"
	"repro/internal/core"
)

func TestAdaptiveFitConvergesOnSparseTruth(t *testing.T) {
	sim, err := circuit.NewSynthetic(80, 60, 1, 4, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b := basis.Linear(sim.Dim())
	res, err := AdaptiveFit(sim, b, &core.OMP{}, AdaptiveConfig{
		Metric:   0,
		InitialK: 40,
		MaxK:     640,
		Folds:    4,
		Seed:     81,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("only %d rounds", len(res.Rounds))
	}
	if !res.Converged {
		t.Error("expected convergence before the budget")
	}
	// The model must recover the true support.
	truth := sim.TrueModel()
	got := map[int]bool{}
	for _, s := range res.Model.Support {
		got[s] = true
	}
	for _, s := range truth.Support {
		if !got[s] {
			t.Errorf("true basis %d missing from adaptive model", s)
		}
	}
	// Error must not rise across rounds. Each round's CV error is a held-out
	// estimate of the model's error, and once the support is found it sits
	// at the noise floor, where it rises from one round to the next for
	// about a third of seeds with nothing wrong. So the check is on the
	// model error itself, against the known truth: the last round's model
	// must be no worse than the first round's. The first round's model is
	// the same run stopped after one round (the rounds share one sample
	// stream), and with orthonormal Hermite terms the L2 model error is the
	// Euclidean distance between coefficient vectors.
	one, err := AdaptiveFit(sim, b, &core.OMP{}, AdaptiveConfig{
		Metric:   0,
		InitialK: 40,
		MaxK:     40,
		Folds:    4,
		Seed:     81,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(one.Rounds[0].CVError) != math.Float64bits(res.Rounds[0].CVError) {
		t.Fatalf("one-round run's CV error %g differs from the first round's %g", one.Rounds[0].CVError, res.Rounds[0].CVError)
	}
	first, last := modelError(one.Model, truth), modelError(res.Model, truth)
	if last > first {
		t.Errorf("model error rose across rounds: %g → %g", first, last)
	}
	// Budget accounting: K grows geometrically from InitialK.
	if res.K > 640 || res.K < 40 {
		t.Errorf("total K = %d outside [40, 640]", res.K)
	}
}

// modelError is the Euclidean distance between two models' dense
// coefficient vectors.
func modelError(m, truth *core.Model) float64 {
	d, t := m.Dense(), truth.Dense()
	var e float64
	for i := range d {
		e += (d[i] - t[i]) * (d[i] - t[i])
	}
	return math.Sqrt(e)
}

func TestAdaptiveFitTargetError(t *testing.T) {
	sim, err := circuit.NewSynthetic(82, 30, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := basis.Linear(sim.Dim())
	res, err := AdaptiveFit(sim, b, &core.OMP{}, AdaptiveConfig{
		Metric:    0,
		InitialK:  48,
		MaxK:      400,
		TargetErr: 0.05,
		Seed:      83,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("noiseless 2-sparse problem should hit the target error")
	}
	if res.K != 48 {
		t.Errorf("expected the first round to suffice, used K=%d", res.K)
	}
}

func TestAdaptiveFitValidation(t *testing.T) {
	sim, err := circuit.NewSynthetic(84, 10, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := basis.Linear(sim.Dim())
	if _, err := AdaptiveFit(sim, basis.Linear(5), &core.OMP{}, AdaptiveConfig{MaxK: 100}); err == nil {
		t.Error("basis/simulator dimension mismatch must error")
	}
	if _, err := AdaptiveFit(sim, b, &core.OMP{}, AdaptiveConfig{Metric: 3, MaxK: 100}); err == nil {
		t.Error("bad metric index must error")
	}
	if _, err := AdaptiveFit(sim, b, &core.OMP{}, AdaptiveConfig{InitialK: 200, MaxK: 100}); err == nil {
		t.Error("MaxK < InitialK must error")
	}
}
