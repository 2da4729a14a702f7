package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/hermite"
	"repro/internal/rng"
)

// naivePredict evaluates the model at y the slowest defensible way: every
// support term's Hermite factors are recomputed from scratch with their own
// one-off table, no sharing across terms or points. It is the oracle the
// compiled/batched paths are property-tested against.
func naivePredict(m *Model, b *basis.Basis, y []float64) float64 {
	s := 0.0
	for i, idx := range m.Support {
		p := 1.0
		for _, vp := range b.Terms[idx] {
			vals := hermite.Eval1DUpTo(nil, vp.Pow, y[vp.Var])
			p *= vals[vp.Pow]
		}
		s += m.Coef[i] * p
	}
	return s
}

// randomBasis draws one of the describable dictionary shapes.
func randomBasis(src *rng.Source, dim int) *basis.Basis {
	switch src.Intn(3) {
	case 0:
		return basis.Linear(dim)
	case 1:
		return basis.Quadratic(dim)
	default:
		return basis.TotalDegree(dim, 2+src.Intn(2)) // degree 2 or 3
	}
}

// TestCompiledPredictorProperty is the property-based agreement suite: for
// random sparse models over random dictionaries and random points, the
// compiled predictor and PredictBatch at 1..8 workers must agree with the
// naive per-term Hermite oracle to 1e-12 relative. Run under -race (make
// race), it also exercises the pooled-scratch sharing across workers.
func TestCompiledPredictorProperty(t *testing.T) {
	src := rng.New(20260806)
	for trial := 0; trial < 40; trial++ {
		dim := 1 + src.Intn(9)
		b := randomBasis(src, dim)
		nnz := src.Intn(minInt(b.Size(), 12) + 1) // 0..12 terms, constant-only allowed
		support := src.Perm(b.Size())[:nnz]
		coef := make([]float64, nnz)
		for i := range coef {
			coef[i] = src.Norm()
		}
		m := &Model{M: b.Size(), Support: support, Coef: coef}
		n := 1 + src.Intn(33)
		points := make([][]float64, n)
		for k := range points {
			points[k] = src.NormVec(nil, dim)
		}
		want := make([]float64, n)
		for k, y := range points {
			want[k] = naivePredict(m, b, y)
		}

		cp, err := m.Compile(b)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		check := func(label string, got []float64) {
			t.Helper()
			for k := range got {
				if diff := math.Abs(got[k] - want[k]); diff > 1e-12*math.Max(1, math.Abs(want[k])) {
					t.Fatalf("trial %d (%s, dim=%d M=%d nnz=%d) point %d: %g, want %g (diff %g)",
						trial, label, dim, b.Size(), nnz, k, got[k], want[k], diff)
				}
			}
		}
		ev := cp.NewEvaluator()
		single := make([]float64, n)
		for k, y := range points {
			single[k] = ev.Eval(y)
		}
		check("evaluator", single)
		for workers := 1; workers <= 8; workers++ {
			got, err := cp.Predict(nil, points, workers)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			check("compiled", got)
			check("batch", m.PredictBatch(b, nil, points, workers))
		}
	}
}

// TestCompiledPredictorConcurrentUse hammers one compiled predictor from
// many goroutines at once — the serving cache-hit shape — so the race
// detector can see the scratch pool and read-only tables under contention.
func TestCompiledPredictorConcurrentUse(t *testing.T) {
	m, b, points := randomModelAndPoints(12, 15, 64, 5)
	cp, err := m.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.Predict(nil, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := cp.Predict(nil, points, 1+g%4)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for k := range got {
					if got[k] != want[k] {
						t.Errorf("goroutine %d point %d: %g, want %g", g, k, got[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompiledPredictorErrors covers the non-panicking error contract.
func TestCompiledPredictorErrors(t *testing.T) {
	m, b, points := randomModelAndPoints(4, 3, 4, 9)
	if _, err := m.Compile(basis.Linear(2)); err == nil {
		t.Error("Compile accepted a mismatched basis")
	}
	cp, err := m.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Predict(make([]float64, 1), points, 2); err == nil {
		t.Error("Predict accepted a short dst")
	}
	if _, err := cp.Predict(nil, [][]float64{{1, 2}}, 1); err == nil {
		t.Error("Predict accepted a dimension-mismatched point")
	}
	if got, err := cp.Predict(nil, nil, 4); err != nil || len(got) != 0 {
		t.Errorf("empty batch: %v, %d values", err, len(got))
	}
	if cp.Dim() != 4 || cp.NNZ() != 3 {
		t.Errorf("Dim/NNZ = %d/%d, want 4/3", cp.Dim(), cp.NNZ())
	}
}

// TestPointEvaluator pins the single-point evaluator to Predict bit for bit
// (one kernel serves both), guards its per-point allocations at zero, and
// checks its dimension panic.
func TestPointEvaluator(t *testing.T) {
	m, b, points := randomModelAndPoints(30, 20, 64, 11)
	cp, err := m.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.Predict(nil, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := cp.NewEvaluator()
	for k, y := range points {
		if got := ev.Eval(y); math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Fatalf("point %d: Eval %v, Predict %v", k, got, want[k])
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		for _, y := range points {
			sink += ev.Eval(y)
		}
	})
	if allocs != 0 {
		t.Errorf("Eval allocates %v times per %d points, want 0", allocs, len(points))
	}
	defer func() {
		if recover() == nil {
			t.Error("Eval accepted a dimension-mismatched point")
		}
	}()
	ev.Eval(make([]float64, 3))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
