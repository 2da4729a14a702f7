package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// residualOrthogonality checks the least-squares optimality condition
// Aᵀ(A·x − b) ≈ 0.
func residualOrthogonality(t *testing.T, a *Matrix, x, b []float64, eps float64) {
	t.Helper()
	r := Sub(nil, a.MulVec(nil, x), b)
	g := a.MulTransVec(nil, r)
	scale := Norm2(b) + 1
	if NormInf(g) > eps*scale {
		t.Errorf("normal-equation residual too large: %g (scale %g)", NormInf(g), scale)
	}
}

func TestQRSolveExactSquare(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 3}})
	b := []float64{3, 5}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Exact solution: x = [0.8, 1.4].
	if !almostEq(x[0], 0.8, tol) || !almostEq(x[1], 1.4, tol) {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

func TestQRSolveOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 40, 7)
	xTrue := make([]float64, 7)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(nil, xTrue)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-9) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestQRSolveNoisyOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 60, 9)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	residualOrthogonality(t, a, x, b, 1e-10)
}

func TestQRFactorUnderdeterminedRejected(t *testing.T) {
	if _, err := QRFactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for rows < cols")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns.
	a := NewMatrixFrom([][]float64{{1, 1}, {2, 2}, {3, 3}})
	_, err := SolveLeastSquares(a, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("expected rank-deficiency error")
	}
}

func TestQRRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 12, 5)
	qr, err := QRFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	// RᵀR must equal AᵀA; R is the upper triangle of the factored matrix.
	ata := gram(a)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < a.Cols; j++ {
			rtr := 0.0
			for k := 0; k <= min(i, j); k++ {
				rtr += qr.fact.At(k, i) * qr.fact.At(k, j)
			}
			if !almostEq(rtr, ata.At(i, j), 1e-9) {
				t.Fatalf("RᵀR ≠ AᵀA at (%d,%d): %g vs %g", i, j, rtr, ata.At(i, j))
			}
		}
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randMatrix(rng, 20, 6)
	a := gram(g) // SPD with probability 1
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	chol, err := CholeskyFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := chol.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := solveSquare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-8) {
			t.Errorf("x[%d]: chol %g vs lu %g", i, x1[i], x2[i])
		}
	}
}

func TestCholeskyAppendMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randMatrix(rng, 30, 8)
	a := gram(g)
	batch, err := CholeskyFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewCholesky()
	for i := 0; i < 8; i++ {
		cross := make([]float64, i)
		for j := 0; j < i; j++ {
			cross[j] = a.At(i, j)
		}
		if err := inc.Append(cross, a.At(i, i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	lb, li := batch.Packed(), inc.Packed()
	for i := range lb {
		if !almostEq(lb[i], li[i], 1e-10) {
			t.Fatalf("incremental L differs at %d: %g vs %g", i, li[i], lb[i])
		}
	}
}

func TestCholeskyAppendRejectsDependentColumn(t *testing.T) {
	c := NewCholesky()
	if err := c.Append(nil, 1); err != nil {
		t.Fatal(err)
	}
	// Second column identical to the first: Gram [[1,1],[1,1]] is singular.
	if err := c.Append([]float64{1}, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	if c.n != 1 {
		t.Errorf("failed Append changed size to %d", c.n)
	}
}

func TestCholeskyNonSquareRejected(t *testing.T) {
	if _, err := CholeskyFactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestCholeskyIndefiniteRejected(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := CholeskyFactor(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewMatrixFrom([][]float64{{0, 2}, {1, 1}}) // needs pivoting
	x, err := solveSquare(a, []float64{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, tol) || !almostEq(x[1], 2, tol) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := solveSquare(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(nil, xTrue)
		x, err := solveSquare(a, b)
		if err != nil {
			// A random Gaussian matrix is almost surely nonsingular, but a
			// tiny pivot can still legitimately fail; treat as a pass only
			// if the matrix really is badly conditioned.
			return true
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// cholOfGram factors the Gram matrix of g through incremental Appends.
func cholOfGram(t *testing.T, a *Matrix) *Cholesky {
	t.Helper()
	c := NewCholesky()
	for i := 0; i < a.Rows; i++ {
		cross := make([]float64, i)
		for j := 0; j < i; j++ {
			cross[j] = a.At(i, j)
		}
		if err := c.Append(cross, a.At(i, i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return c
}

func TestCholeskyUpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randMatrix(rng, 30, 7)
	a := gram(g)
	c := cholOfGram(t, a)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// A + x·xᵀ refactored from scratch.
	ax := a.Clone()
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			ax.Set(i, j, ax.At(i, j)+x[i]*x[j])
		}
	}
	want, err := CholeskyFactor(ax)
	if err != nil {
		t.Fatal(err)
	}
	c.Update(append([]float64(nil), x...))
	lw, lu := want.Packed(), c.Packed()
	for i := range lw {
		if !almostEq(lw[i], lu[i], 1e-10) {
			t.Fatalf("updated L differs at %d: %g vs %g", i, lu[i], lw[i])
		}
	}
}

func TestCholeskyDropMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randMatrix(rng, 40, 8)
	a := gram(g)
	for drop := 0; drop < 8; drop++ {
		c := cholOfGram(t, a)
		c.Drop(drop)
		if c.n != 7 {
			t.Fatalf("Size after Drop = %d, want 7", c.n)
		}
		// The Gram matrix with row/column `drop` deleted, refactored cold.
		sub := NewMatrix(7, 7)
		for i, si := 0, 0; i < 8; i++ {
			if i == drop {
				continue
			}
			for j, sj := 0, 0; j < 8; j++ {
				if j == drop {
					continue
				}
				sub.Set(si, sj, a.At(i, j))
				sj++
			}
			si++
		}
		want, err := CholeskyFactor(sub)
		if err != nil {
			t.Fatal(err)
		}
		lw, ld := want.Packed(), c.Packed()
		for i := range lw {
			if !almostEq(lw[i], ld[i], 1e-10) {
				t.Fatalf("drop %d: downdated L differs at %d: %g vs %g", drop, i, ld[i], lw[i])
			}
		}
	}
}

func TestCholeskyDropSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := randMatrix(rng, n+12, n)
		a := gram(g)
		c, err := CholeskyFactor(a)
		if err != nil {
			return true
		}
		drop := rng.Intn(n)
		c.Drop(drop)
		b := make([]float64, n-1)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := c.Solve(b)
		if err != nil {
			return false
		}
		sub := NewMatrix(n-1, n-1)
		for i, si := 0, 0; i < n; i++ {
			if i == drop {
				continue
			}
			for j, sj := 0, 0; j < n; j++ {
				if j == drop {
					continue
				}
				sub.Set(si, sj, a.At(i, j))
				sj++
			}
			si++
		}
		want, err := solveSquare(sub, b)
		if err != nil {
			return true
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randMatrix(rng, 20, 6)
	c := cholOfGram(t, gram(g))
	rt, err := CholeskyFromPacked(c.n, c.Packed())
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, -4, 5, -6}
	x1, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := rt.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("packed round-trip changed solution: %g vs %g", x1[i], x2[i])
		}
	}
}

func TestCholeskyFromPackedRejectsCorrupt(t *testing.T) {
	if _, err := CholeskyFromPacked(3, []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := CholeskyFromPacked(-1, nil); err == nil {
		t.Fatal("expected dimension error")
	}
	// Zero and NaN diagonals must be rejected — Solve divides by them.
	if _, err := CholeskyFromPacked(2, []float64{1, 0.5, 0}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero diagonal: got %v", err)
	}
	if _, err := CholeskyFromPacked(1, []float64{math.NaN()}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("NaN diagonal: got %v", err)
	}
}

func TestCholeskySolveLeadingMatchesSubfactor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randMatrix(rng, 30, 6)
	a := gram(g)
	c := cholOfGram(t, a)
	for j := 1; j <= 6; j++ {
		b := make([]float64, j)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := c.SolveLeading(j, b)
		if err != nil {
			t.Fatal(err)
		}
		sub := NewMatrix(j, j)
		for i := 0; i < j; i++ {
			for k := 0; k < j; k++ {
				sub.Set(i, k, a.At(i, k))
			}
		}
		wantC, err := CholeskyFactor(sub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wantC.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !almostEq(got[i], want[i], 1e-10) {
				t.Fatalf("leading %d solve differs at %d: %g vs %g", j, i, got[i], want[i])
			}
		}
	}
}

// Property: for random SPD systems, Cholesky and QR least-squares agree.
func TestCholeskyQRConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		k := n + 5 + rng.Intn(20)
		g := randMatrix(rng, k, n)
		b := make([]float64, k)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xQR, err := SolveLeastSquares(g, b)
		if err != nil {
			return true
		}
		chol, err := CholeskyFactor(gram(g))
		if err != nil {
			return true
		}
		xCh, err := chol.Solve(g.MulTransVec(nil, b))
		if err != nil {
			return true
		}
		for i := range xQR {
			if math.Abs(xQR[i]-xCh[i]) > 1e-6*(1+math.Abs(xQR[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
