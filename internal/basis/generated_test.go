package basis

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestGeneratedDesignMatchesLazy(t *testing.T) {
	// A GeneratedDesign must behave exactly like a LazyDesign built from the
	// explicitly regenerated points.
	const k, dim, seed = 17, 6, 99
	b := Quadratic(dim)
	gen := NewGeneratedDesign(b, k, seed)
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = rng.RowPoint(nil, seed, i, dim)
	}
	lazy := NewLazyDesign(b, pts)

	if gen.Rows() != lazy.Rows() || gen.Cols() != lazy.Cols() {
		t.Fatalf("dims differ")
	}
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i) - 8
	}
	a := gen.MulTransVec(nil, x)
	bb := lazy.MulTransVec(nil, x)
	for i := range a {
		if math.Abs(a[i]-bb[i]) > 1e-12*(1+math.Abs(bb[i])) {
			t.Fatalf("MulTransVec differs at %d: %g vs %g", i, a[i], bb[i])
		}
	}
	for m := 0; m < gen.Cols(); m += 5 {
		ca := gen.Column(nil, m)
		cb := lazy.Column(nil, m)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("Column(%d)[%d] differs", m, i)
			}
		}
	}
}

func TestGeneratedDesignDeterministic(t *testing.T) {
	b := Linear(4)
	g1 := NewGeneratedDesign(b, 10, 7)
	g2 := NewGeneratedDesign(b, 10, 7)
	c1 := g1.Column(nil, 2)
	c2 := g2.Column(nil, 2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("same seed produced different designs")
		}
	}
	g3 := NewGeneratedDesign(b, 10, 8)
	c3 := g3.Column(nil, 2)
	same := true
	for i := range c1 {
		if c1[i] != c3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical designs")
	}
}

func TestGeneratedDesignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGeneratedDesign(Linear(2), 0, 1)
}
