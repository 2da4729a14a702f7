package basis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hermite"
	"repro/internal/linalg"
	"repro/internal/rng"
)

func randPoints(r *rand.Rand, k, n int) [][]float64 {
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = make([]float64, n)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
	}
	return pts
}

func TestBasisSizes(t *testing.T) {
	if got := Linear(630).Size(); got != 631 {
		t.Errorf("Linear(630) size %d, want 631 (paper OpAmp)", got)
	}
	if got := Quadratic(200).Size(); got != 20301 {
		t.Errorf("Quadratic(200) size %d, want 20301 (paper Table II)", got)
	}
}

func TestEvalRowMatchesTermEval(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	b := Quadratic(7)
	y := make([]float64, 7)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	row := b.EvalRow(nil, y)
	for m, term := range b.Terms {
		want := term.Eval(y)
		if math.Abs(row[m]-want) > 1e-13*(1+math.Abs(want)) {
			t.Errorf("EvalRow[%d] = %g, want %g (%v)", m, row[m], want, term)
		}
	}
}

func TestNewRejectsOutOfRangeVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, []hermite.Term{{{Var: 5, Pow: 1}}})
}

func TestDenseAndLazyAgree(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	b := Quadratic(5)
	pts := randPoints(r, 12, 5)
	dense := NewDenseDesign(b, pts)
	lazy := NewLazyDesign(b, pts)

	if dense.Rows() != lazy.Rows() || dense.Cols() != lazy.Cols() {
		t.Fatalf("dims differ: dense %dx%d lazy %dx%d", dense.Rows(), dense.Cols(), lazy.Rows(), lazy.Cols())
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	gd := dense.MulTransVec(nil, x)
	gl := lazy.MulTransVec(nil, x)
	for i := range gd {
		if math.Abs(gd[i]-gl[i]) > 1e-11*(1+math.Abs(gd[i])) {
			t.Errorf("MulTransVec[%d]: dense %g lazy %g", i, gd[i], gl[i])
		}
	}
	for m := 0; m < dense.Cols(); m += 3 {
		cd := dense.Column(nil, m)
		cl := lazy.Column(nil, m)
		for k := range cd {
			if math.Abs(cd[k]-cl[k]) > 1e-13 {
				t.Errorf("Column(%d)[%d]: dense %g lazy %g", m, k, cd[k], cl[k])
			}
		}
	}
}

func TestColumnMatchesDesignMatrixDefinition(t *testing.T) {
	// eq. (7): G_m[k] = g_m(ΔY⁽ᵏ⁾).
	r := rand.New(rand.NewSource(22))
	b := Linear(4)
	pts := randPoints(r, 6, 4)
	d := NewDenseDesign(b, pts)
	for m := 0; m < b.Size(); m++ {
		col := d.Column(nil, m)
		for k, y := range pts {
			want := b.Eval(m, y)
			if col[k] != want {
				t.Errorf("G_%d[%d] = %g, want %g", m, k, col[k], want)
			}
		}
	}
}

func TestLazyDesignDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLazyDesign(Linear(3), [][]float64{{1, 2}})
}

// Property: for any basis vector column, Gᵀ·e_k reproduces row k of G.
func TestMulTransVecUnitVectors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		kN := 3 + r.Intn(6)
		b := Quadratic(n)
		pts := randPoints(r, kN, n)
		lazy := NewLazyDesign(b, pts)
		k := r.Intn(kN)
		e := make([]float64, kN)
		e[k] = 1
		got := lazy.MulTransVec(nil, e)
		want := b.EvalRow(nil, pts[k])
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGramOfOrthonormalBasisApproachesIdentity(t *testing.T) {
	// With many Monte Carlo samples the empirical Gram matrix (1/K)·GᵀG of an
	// orthonormal basis approaches the identity — the property that makes
	// the inner-product estimator (14) consistent.
	r := rand.New(rand.NewSource(23))
	b := Quadratic(3)
	pts := randPoints(r, 60000, 3)
	d := NewDenseDesign(b, pts)
	k := float64(d.Rows())
	for i := 0; i < b.Size(); i++ {
		ci := d.Column(nil, i)
		for j := 0; j < b.Size(); j++ {
			got := linalg.Dot(ci, d.Column(nil, j)) / k
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > 0.05 {
				t.Errorf("(1/K)GᵀG(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestVisitRowsAllDesigns(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	b := Quadratic(4)
	pts := randPoints(r, 9, 4)
	dense := NewDenseDesign(b, pts)
	lazy := NewLazyDesign(b, pts)
	want := make([][]float64, 9)
	for k, y := range pts {
		want[k] = b.EvalRow(nil, y)
	}
	check := func(name string, d Design) {
		visited := 0
		d.VisitRows(func(k int, row []float64) {
			if k != visited {
				t.Fatalf("%s: rows out of order: got %d, want %d", name, k, visited)
			}
			for j := range row {
				if math.Abs(row[j]-want[k][j]) > 1e-13*(1+math.Abs(want[k][j])) {
					t.Fatalf("%s: row %d col %d = %g, want %g", name, k, j, row[j], want[k][j])
				}
			}
			visited++
		})
		if visited != 9 {
			t.Fatalf("%s: visited %d rows, want 9", name, visited)
		}
	}
	check("dense", dense)
	check("lazy", lazy)
}

func TestSquaredColumnNormsMatchesColumns(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	b := Quadratic(5)
	pts := randPoints(r, 14, 5)
	d := NewDenseDesign(b, pts)
	norms := SquaredColumnNorms(d, nil)
	col := make([]float64, 14)
	for j := 0; j < d.Cols(); j++ {
		d.Column(col, j)
		want := 0.0
		for _, v := range col {
			want += v * v
		}
		if math.Abs(norms[j]-want) > 1e-11*(1+want) {
			t.Fatalf("norms[%d] = %g, want %g", j, norms[j], want)
		}
	}
}

func TestGeneratedDesignVisitRows(t *testing.T) {
	b := Linear(3)
	g := NewGeneratedDesign(b, 6, 42)
	count := 0
	g.VisitRows(func(k int, row []float64) {
		pt := rng.RowPoint(nil, 42, k, 3)
		want := b.EvalRow(nil, pt)
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("row %d mismatch", k)
			}
		}
		count++
	})
	if count != 6 {
		t.Fatalf("visited %d rows", count)
	}
}
