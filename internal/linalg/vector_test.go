package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, tol) {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if Norm2(nil) != 0 {
		t.Error("Norm2(nil) should be 0")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %g", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Norm2 = %g, want %g", got, want)
	}
}

func TestNormInf(t *testing.T) {
	x := []float64{-1, 2, -3}
	if NormInf(x) != 3 {
		t.Errorf("NormInf = %g, want 3", NormInf(x))
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -1}, y)
	if y[0] != 7 || y[1] != -1 {
		t.Errorf("Axpy = %v, want [7 -1]", y)
	}
}

func TestScaleSub(t *testing.T) {
	x := []float64{2, 4}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Scale = %v", x)
	}
	d := Sub(nil, []float64{5, 5}, x)
	if d[0] != 4 || d[1] != 3 {
		t.Errorf("Sub = %v", d)
	}
}

// Property: Cauchy–Schwarz |x·y| ≤ ‖x‖‖y‖ and triangle inequality for Norm2.
func TestNormProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if math.Abs(Dot(x, y)) > Norm2(x)*Norm2(y)*(1+1e-12) {
			return false
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = x[i] + y[i]
		}
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
