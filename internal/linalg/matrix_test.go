package linalg

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-10

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %g, want 6", m.At(2, 1))
	}
}

func TestNewMatrixFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMatrixSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(4, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Errorf("At(1,2) = %g, want 7.5", m.At(1, 2))
	}
	if m.At(2, 1) != 0 {
		t.Errorf("At(2,1) = %g, want 0", m.At(2, 1))
	}
}

func TestColSetCol(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	got := m.Col(nil, 1)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Errorf("Col[%d] = %g, want %g", i, got[i], want)
		}
	}
	if m.At(0, 0) != 0 {
		t.Error("SetCol touched a different column")
	}
}

func TestMulVecAgainstHandComputed(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec(nil, []float64{1, -1})
	want := []float64{-1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMulTransVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 7, 4)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulTransVec(nil, x)
	want := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := range want {
			want[j] += m.At(i, j) * x[i]
		}
	}
	for i := range want {
		if !almostEq(got[i], want[i], tol) {
			t.Errorf("MulTransVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}
