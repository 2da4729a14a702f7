package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Norm() != b.Norm() {
			t.Fatal("equal seeds diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(1)
	c1, c2 := s.Split(), s.Split()
	same := true
	for i := 0; i < 10; i++ {
		if c1.Norm() != c2.Norm() {
			same = false
		}
	}
	if same {
		t.Error("split children produced identical streams")
	}
}

func TestNormVecMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	x := s.NormVec(nil, n)
	mean, m2 := 0.0, 0.0
	for _, v := range x {
		mean += v
	}
	mean /= n
	for _, v := range x {
		m2 += (v - mean) * (v - mean)
	}
	m2 /= n - 1
	if math.Abs(mean) > 0.01 {
		t.Errorf("sample mean %g too far from 0", mean)
	}
	if math.Abs(m2-1) > 0.02 {
		t.Errorf("sample variance %g too far from 1", m2)
	}
}

func TestMVNormalCovariance(t *testing.T) {
	sigma := linalg.NewMatrixFrom([][]float64{
		{2.0, 0.6, 0.0},
		{0.6, 1.0, -0.3},
		{0.0, -0.3, 0.5},
	})
	mv, err := NewMVNormal(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", mv.Dim())
	}
	src := New(11)
	const n = 100000
	cov := linalg.NewMatrix(3, 3)
	x := make([]float64, 3)
	for k := 0; k < n; k++ {
		mv.Sample(src, x)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				cov.Set(i, j, cov.At(i, j)+x[i]*x[j])
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			got := cov.At(i, j) / n
			want := sigma.At(i, j)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("cov(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestMVNormalRejectsIndefinite(t *testing.T) {
	sigma := linalg.NewMatrixFrom([][]float64{{1, 2}, {2, 1}})
	if _, err := NewMVNormal(sigma); err == nil {
		t.Fatal("expected error for indefinite covariance")
	}
}

func TestNormQuantileInverse(t *testing.T) {
	for _, p := range []float64{1e-8, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-8} {
		x := NormQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-12*(1+p) && math.Abs(back-p) > 1e-14 {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile boundary values should be ±Inf")
	}
	if NormQuantile(0.5) != 0 && math.Abs(NormQuantile(0.5)) > 1e-15 {
		t.Errorf("NormQuantile(0.5) = %g, want 0", NormQuantile(0.5))
	}
}

func TestNormQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return NormQuantile(pa) <= NormQuantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	src := New(3)
	const n, dim = 64, 4
	pts := LatinHypercube(src, n, dim)
	if len(pts) != n || len(pts[0]) != dim {
		t.Fatalf("got %dx%d design", len(pts), len(pts[0]))
	}
	// Each dimension must contain exactly one point per stratum: mapping the
	// values back through Φ and multiplying by n must give distinct integer
	// bins 0..n-1.
	for d := 0; d < dim; d++ {
		bins := make([]int, 0, n)
		for i := 0; i < n; i++ {
			u := 0.5 * math.Erfc(-pts[i][d]/math.Sqrt2)
			bins = append(bins, int(u*float64(n)))
		}
		sort.Ints(bins)
		for i, b := range bins {
			if b != i {
				t.Fatalf("dimension %d is not stratified: bins %v", d, bins)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(5).Perm(30)
	seen := make([]bool, 30)
	for _, v := range p {
		if v < 0 || v >= 30 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRowPointDeterministicAndDistinct(t *testing.T) {
	a := RowPoint(nil, 7, 3, 10)
	b := RowPoint(nil, 7, 3, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RowPoint not deterministic")
		}
	}
	c := RowPoint(nil, 7, 4, 10)
	d := RowPoint(nil, 8, 3, 10)
	sameC, sameD := true, true
	for i := range a {
		if a[i] != c[i] {
			sameC = false
		}
		if a[i] != d[i] {
			sameD = false
		}
	}
	if sameC || sameD {
		t.Error("distinct rows/seeds produced identical points")
	}
}

func TestRowPointMoments(t *testing.T) {
	const rows, dim = 4000, 25
	var sum, sq float64
	pt := make([]float64, dim)
	n := 0
	for k := 0; k < rows; k++ {
		RowPoint(pt, 99, k, dim)
		for _, v := range pt {
			sum += v
			sq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("RowPoint mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("RowPoint variance %g, want ~1", variance)
	}
}

func TestRowPointOddDimension(t *testing.T) {
	pt := RowPoint(nil, 1, 0, 7)
	if len(pt) != 7 {
		t.Fatalf("length %d", len(pt))
	}
	for _, v := range pt {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite variate")
		}
	}
}

func TestRadicalInverse(t *testing.T) {
	// Base 2: 1 → 0.5, 2 → 0.25, 3 → 0.75.
	cases := map[int]float64{1: 0.5, 2: 0.25, 3: 0.75, 4: 0.125}
	for i, want := range cases {
		if got := radicalInverse(i, 2); math.Abs(got-want) > 1e-15 {
			t.Errorf("radicalInverse(%d, 2) = %g, want %g", i, got, want)
		}
	}
}

func TestHaltonMomentsAndDeterminism(t *testing.T) {
	src := New(40)
	pts := Halton(src, 5000, 8)
	if len(pts) != 5000 || len(pts[0]) != 8 {
		t.Fatalf("got %dx%d design", len(pts), len(pts[0]))
	}
	for d := 0; d < 8; d++ {
		var sum, sq float64
		for _, p := range pts {
			sum += p[d]
			sq += p[d] * p[d]
		}
		mean := sum / 5000
		variance := sq/5000 - mean*mean
		if math.Abs(mean) > 0.03 {
			t.Errorf("dim %d mean %g", d, mean)
		}
		if math.Abs(variance-1) > 0.05 {
			t.Errorf("dim %d variance %g", d, variance)
		}
	}
	// Same seed → same randomization.
	again := Halton(New(40), 10, 8)
	for i := range again {
		for d := range again[i] {
			if again[i][d] != pts[i][d] {
				t.Fatal("Halton not deterministic in the seed")
			}
		}
	}
}

func TestHaltonBeatsMCOnSmoothIntegral(t *testing.T) {
	// Estimate E[y0·y1] (= 0) with K points: the QMC estimator's spread over
	// independent randomizations should be well below plain MC's.
	const k, trials = 256, 40
	spread := func(qmc bool) float64 {
		var ests []float64
		for tr := 0; tr < trials; tr++ {
			src := New(int64(100 + tr))
			var pts [][]float64
			if qmc {
				pts = Halton(src, k, 2)
			} else {
				pts = make([][]float64, k)
				for i := range pts {
					pts[i] = src.NormVec(nil, 2)
				}
			}
			s := 0.0
			for _, p := range pts {
				s += p[0] * p[1]
			}
			ests = append(ests, s/k)
		}
		var m, v float64
		for _, e := range ests {
			m += e
		}
		m /= trials
		for _, e := range ests {
			v += (e - m) * (e - m)
		}
		return math.Sqrt(v / trials)
	}
	mc, qmc := spread(false), spread(true)
	if qmc >= mc {
		t.Errorf("QMC spread %g not below MC %g", qmc, mc)
	}
}

func TestPointNormMoments(t *testing.T) {
	const n = 20000
	var sum, sq float64
	pt := make([]float64, 6)
	for k := 0; k < n; k++ {
		RowPoint(pt, 5, k, len(pt))
		v := PointNorm(3, pt)
		if v != PointNorm(3, pt) {
			t.Fatal("PointNorm is not a function of its inputs")
		}
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 || math.Abs(variance-1) > 0.04 {
		t.Errorf("PointNorm mean %g variance %g, want ~0 and ~1", mean, variance)
	}
	if PointNorm(3, pt) == PointNorm(4, pt) {
		t.Error("distinct seeds drew the same value at one point")
	}
}
