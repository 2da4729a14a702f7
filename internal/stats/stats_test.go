package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(x); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, 32.0/7)
	}
	if got := StdDev(x); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %g", got)
	}
}

func TestMeanVarianceEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of one point should be 0")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{4, 1, 3, 2}
	if got := Quantile(x, 0); got != 1 {
		t.Errorf("Q(0) = %g, want 1", got)
	}
	if got := Quantile(x, 1); got != 4 {
		t.Errorf("Q(1) = %g, want 4", got)
	}
	if got := Quantile(x, 0.5); got != 2.5 {
		t.Errorf("Q(0.5) = %g, want 2.5", got)
	}
	// The input must not be reordered.
	if x[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"empty", func() { Quantile(nil, 0.5) }},
		{"p<0", func() { Quantile([]float64{1}, -0.1) }},
		{"p>1", func() { Quantile([]float64{1}, 1.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestRelativeRMSError(t *testing.T) {
	truth := []float64{1, 2, 2}
	if got := RelativeRMSError(truth, truth); got != 0 {
		t.Errorf("exact prediction error = %g, want 0", got)
	}
	pred := []float64{1.1, 2.2, 2.2}
	want := math.Sqrt(0.01+0.04+0.04) / math.Sqrt(1+4+4)
	if got := RelativeRMSError(pred, truth); math.Abs(got-want) > 1e-12 {
		t.Errorf("error = %g, want %g", got, want)
	}
	if !math.IsInf(RelativeRMSError([]float64{1}, []float64{0}), 1) {
		t.Error("nonzero prediction of zero truth should be +Inf")
	}
	if RelativeRMSError([]float64{0}, []float64{0}) != 0 {
		t.Error("zero prediction of zero truth should be 0")
	}
}

// Property: relative error is scale invariant.
func TestRelativeRMSErrorScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			pred[i] = rng.NormFloat64()
			truth[i] = rng.NormFloat64() + 2 // keep away from 0
		}
		e1 := RelativeRMSError(pred, truth)
		c := 1 + math.Abs(rng.NormFloat64())
		scaledPred := make([]float64, n)
		scaledTruth := make([]float64, n)
		for i := range pred {
			scaledPred[i] = c * pred[i]
			scaledTruth[i] = c * truth[i]
		}
		e2 := RelativeRMSError(scaledPred, scaledTruth)
		return math.Abs(e1-e2) < 1e-10*(1+e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
