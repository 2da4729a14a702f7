package linalg

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestSolveComplexKnownSystem(t *testing.T) {
	// (1+i)x = 2i → x = 2i/(1+i) = 1+i.
	a := NewCMatrix(1, 1)
	a.Add(0, 0, complex(1, 1))
	x, err := SolveComplex(a, []complex128{complex(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(1, 1)) > 1e-14 {
		t.Errorf("x = %v, want 1+i", x[0])
	}
}

func TestSolveComplexRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	const n = 12
	a := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	// b = A·x.
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		s := complex(0, 0)
		for j := 0; j < n; j++ {
			s += a.Data[i*a.Cols+j] * xTrue[j]
		}
		b[i] = s
	}
	x, err := SolveComplex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-xTrue[i]) > 1e-9*(1+cmplx.Abs(xTrue[i])) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	// Inputs untouched.
	if b[0] == 0 {
		t.Error("rhs looks modified")
	}
}

func TestSolveComplexNeedsPivoting(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Add(0, 1, 2) // zero diagonal pivot at (0,0)
	a.Add(1, 0, 1)
	a.Add(1, 1, 1)
	x, err := SolveComplex(a, []complex128{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-14 || cmplx.Abs(x[1]-2) > 1e-14 {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestSolveComplexSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 0, 2)
	a.Add(1, 1, 4)
	if _, err := SolveComplex(a, []complex128{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestSolveComplexValidation(t *testing.T) {
	if _, err := SolveComplex(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Error("non-square must error")
	}
	if _, err := SolveComplex(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Error("rhs length mismatch must error")
	}
}

func TestCMatrixAccessors(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Add(0, 1, complex(1, 2))
	m.Add(0, 1, complex(1, -1))
	if m.Data[0*m.Cols+1] != complex(2, 1) {
		t.Errorf("Add accumulate wrong: %v", m.Data[0*m.Cols+1])
	}
	m.Reset()
	if m.Data[0*m.Cols+1] != 0 {
		t.Error("Reset did not zero")
	}
}

func TestCMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCMatrix(-1, 1)
}
