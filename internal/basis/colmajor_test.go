package basis

import (
	"math"
	"math/rand"
	"testing"
)

// randomDense builds a dense design over a quadratic basis with seeded
// normal points.
func randomDense(t *testing.T, dim, k int, seed int64) (*Basis, *DenseDesign) {
	t.Helper()
	b := Quadratic(dim)
	return b, NewDenseDesign(b, randomPoints(dim, k, seed, 1))
}

// randomPoints draws k seeded normal points over dim variables, scaled.
func randomPoints(dim, k int, seed int64, scale float64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = scale * r.NormFloat64()
		}
	}
	return pts
}

func TestColMajorMatchesDense(t *testing.T) {
	// dim=30 gives M=496, which spans two 256-column blocks — the block
	// boundary is the interesting case for ColSlice offsets.
	_, d := randomDense(t, 30, 37, 7)
	cm := NewColMajor(d)
	if cm.Rows() != d.Rows() || cm.Cols() != d.Cols() {
		t.Fatalf("dims %dx%d, want %dx%d", cm.Rows(), cm.Cols(), d.Rows(), d.Cols())
	}
	for _, j := range []int{0, 1, 255, 256, 257, cm.Cols() - 1} {
		want := d.Column(nil, j)
		got := cm.ColSlice(j)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %d row %d: %g, want %g", j, i, got[i], want[i])
			}
		}
		if copied := cm.Column(nil, j); copied[len(copied)-1] != want[len(want)-1] {
			t.Fatalf("Column copy mismatch at %d", j)
		}
	}
}

func TestColMajorMulTransVecBitIdentical(t *testing.T) {
	// The engine relies on ColMajor's per-column ascending-row summation
	// matching the row-streaming implementations bit for bit, so that
	// swapping storage never perturbs solver selections.
	_, d := randomDense(t, 30, 41, 11)
	cm := NewColMajor(d)
	r := rand.New(rand.NewSource(13))
	x := make([]float64, d.Rows())
	for i := range x {
		x[i] = r.NormFloat64()
	}
	want := d.MulTransVec(nil, x)
	got := cm.MulTransVec(nil, x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("MulTransVec[%d] = %.17g, want %.17g", j, got[j], want[j])
		}
	}
	// Range form over an arbitrary split must agree with the full sweep.
	ranged := make([]float64, cm.Cols())
	cm.MulTransVecRange(ranged, x, 0, 100)
	cm.MulTransVecRange(ranged, x, 100, cm.Cols())
	for j := range want {
		if ranged[j] != want[j] {
			t.Fatalf("MulTransVecRange[%d] = %.17g, want %.17g", j, ranged[j], want[j])
		}
	}
}

func TestColMajorVisitRows(t *testing.T) {
	_, d := randomDense(t, 30, 9, 17)
	cm := NewColMajor(d)
	visited := 0
	cm.VisitRows(func(k int, row []float64) {
		visited++
		for _, j := range []int{0, 300, cm.Cols() - 1} {
			want := d.Column(nil, j)[k]
			if math.Abs(row[j]-want) != 0 {
				t.Fatalf("row %d col %d: %g, want %g", k, j, row[j], want)
			}
		}
	})
	if visited != d.Rows() {
		t.Fatalf("visited %d rows, want %d", visited, d.Rows())
	}
}

func TestColMajorColSliceBoundsPanic(t *testing.T) {
	_, d := randomDense(t, 5, 4, 19)
	cm := NewColMajor(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range column")
		}
	}()
	cm.ColSlice(cm.Cols())
}

// sameBits fails unless got and want agree entry for entry in their IEEE-754
// bit patterns — not just numerically, so ±0 and NaN payloads count too.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %.17g, want %.17g", label, i, got[i], want[i])
		}
	}
}

func TestNewColMajorDesignBitIdentical(t *testing.T) {
	// dim=30 gives M=496, spanning two 256-column blocks, and K=150 spans
	// three row tiles with a ragged last one. Degree 3 adds three-factor
	// terms, so the factor order of the product is exercised too.
	for _, b := range []*Basis{Quadratic(30), TotalDegree(6, 3)} {
		pts := randomPoints(b.Dim, 150, 23, 2)
		want := NewColMajor(NewDenseDesign(b, pts))
		got := NewColMajorDesign(b, pts)
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("dims %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for j := 0; j < want.Cols(); j++ {
			sameBits(t, "column", got.ColSlice(j), want.ColSlice(j))
		}
		if _, ok := AutoColMajor(b, pts).(*ColMajor); !ok {
			t.Fatal("AutoColMajor of a small design is not column-major")
		}
	}
}

func TestSquaredColumnNormsStorageIndependent(t *testing.T) {
	b := Quadratic(30)
	pts := randomPoints(30, 41, 29, 1)
	want := SquaredColumnNorms(NewDenseDesign(b, pts), nil)
	sameBits(t, "colmajor norms", SquaredColumnNorms(NewColMajorDesign(b, pts), nil), want)
	sameBits(t, "lazy norms", SquaredColumnNorms(NewLazyDesign(b, pts), nil), want)
}
