package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/basis"
)

func TestCheckProblem(t *testing.T) {
	_, d, f, _ := synthProblem(301, 5, 12, false, []int{1}, []float64{1}, 0)
	nanF := append([]float64(nil), f...)
	nanF[3] = math.NaN()
	infF := append([]float64(nil), f...)
	infF[7] = math.Inf(-1)

	cases := []struct {
		name      string
		d         basis.Design
		f         []float64
		maxLambda int
		wantErr   string
	}{
		{"valid", d, f, 3, ""},
		{"row-mismatch", d, f[:5], 3, "rows but response has"},
		{"empty", basis.NewDenseDesign(basis.Linear(5), nil), nil, 3, "empty sample set"},
		{"lambda-zero", d, f, 0, "maxLambda must be"},
		{"lambda-negative", d, f, -2, "maxLambda must be"},
		{"nan-response", d, nanF, 3, "NaN"},
		{"inf-response", d, infF, 3, "-Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkProblem(tc.d, tc.f, tc.maxLambda)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("checkProblem: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("checkProblem: want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkProblem: error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestResolveFitWorkers(t *testing.T) {
	if got := ResolveFitWorkers(3); got != 3 {
		t.Fatalf("ResolveFitWorkers(3) = %d", got)
	}
	auto := runtime.GOMAXPROCS(0)
	if got := ResolveFitWorkers(0); got != auto {
		t.Fatalf("ResolveFitWorkers(0) = %d, want GOMAXPROCS %d", got, auto)
	}
	if got := ResolveFitWorkers(-5); got != auto {
		t.Fatalf("ResolveFitWorkers(-5) = %d, want GOMAXPROCS %d", got, auto)
	}
}

func TestWithFitWorkersRoundTrip(t *testing.T) {
	if got := FitWorkersFromContext(context.Background()); got != 0 {
		t.Fatalf("unset context: workers = %d, want 0", got)
	}
	if got := FitWorkersFromContext(nil); got != 0 {
		t.Fatalf("nil context: workers = %d, want 0", got)
	}
	ctx := WithFitWorkers(context.Background(), 4)
	if got := FitWorkersFromContext(ctx); got != 4 {
		t.Fatalf("workers = %d, want 4", got)
	}
	fc := NewFitContext(ctx)
	if got := fc.engine().Workers(); got != 4 {
		t.Fatalf("engine workers = %d, want 4", got)
	}
}

// TestCorrelatorParallelBitIdentical forces multi-worker sweeps on a design
// above the parallel threshold and requires bit-exact agreement with the
// design's own serial MulTransVec: the column-sharded kernel must not change
// summation order, so worker count can never perturb solver paths.
func TestCorrelatorParallelBitIdentical(t *testing.T) {
	// Quadratic basis in 30 dims → M=496; K=70 puts K·M ≈ 34.7k above
	// correlateParallelMin so the parallel path actually engages.
	_, d, f, _ := synthProblem(302, 30, 70, true, []int{2, 40, 100}, []float64{1, -2, 0.5}, 0.1)
	if d.Rows()*d.Cols() < correlateParallelMin {
		t.Fatalf("test design too small to engage the parallel sweep: %d", d.Rows()*d.Cols())
	}
	want := d.MulTransVec(nil, f)
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		c := newCorrelator(d, workers)
		if workers > 1 && c.cm == nil {
			t.Fatalf("workers=%d: correlator did not materialize column-major storage", workers)
		}
		got, err := c.Apply(nil, f)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: correlation[%d] = %.17g, want %.17g (must be bit-identical)",
					workers, j, got[j], want[j])
			}
		}
	}
}

// TestCorrelatorAdoptsColMajor verifies a design already in column-major form
// is used in place rather than copied.
func TestCorrelatorAdoptsColMajor(t *testing.T) {
	_, d, _, _ := synthProblem(303, 5, 12, false, []int{1}, []float64{1}, 0)
	cm := basis.NewColMajor(d)
	c := newCorrelator(cm, 4)
	if c.cm != cm {
		t.Fatal("correlator did not adopt the ColMajor design in place")
	}
}

// TestCorrelatorSmallStaysSerial verifies tiny designs skip both the
// column-major copy and the goroutine fork.
func TestCorrelatorSmallStaysSerial(t *testing.T) {
	_, d, _, _ := synthProblem(304, 5, 12, false, []int{1}, []float64{1}, 0)
	if c := newCorrelator(d, 8); c.cm != nil {
		t.Fatal("small design should not be materialized column-major")
	}
}

// TestSolverPathsWorkerIndependent runs every solver with forced parallel
// workers on a problem large enough to engage the parallel sweep and demands
// the exact path produced by the serial fit.
func TestSolverPathsWorkerIndependent(t *testing.T) {
	_, d, f, _ := synthProblem(305, 30, 80, true, []int{3, 55, 200, 310}, []float64{2, -1, 1.5, 0.7}, 0.05)
	ctx := WithFitWorkers(context.Background(), 4)
	for _, fitter := range equivalenceSolvers() {
		cf := fitter.(ContextFitter)
		serial, err := fitter.FitPath(d, f, equivalenceMaxLambda)
		if err != nil {
			t.Fatalf("%s serial: %v", solverLabel(fitter), err)
		}
		par, err := cf.FitPathCtx(NewFitContext(ctx), d, f, equivalenceMaxLambda)
		if err != nil {
			t.Fatalf("%s parallel: %v", solverLabel(fitter), err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("%s: parallel path length %d, serial %d", solverLabel(fitter), par.Len(), serial.Len())
		}
		for s := range serial.Models {
			sm, pm := serial.Models[s], par.Models[s]
			if len(sm.Support) != len(pm.Support) {
				t.Fatalf("%s step %d: support sizes differ", solverLabel(fitter), s)
			}
			for j := range sm.Support {
				if sm.Support[j] != pm.Support[j] {
					t.Errorf("%s step %d: support[%d] %d != %d", solverLabel(fitter), s, j, pm.Support[j], sm.Support[j])
				}
				if sm.Coef[j] != pm.Coef[j] {
					t.Errorf("%s step %d: coef[%d] %.17g != %.17g (must be bit-identical)",
						solverLabel(fitter), s, j, pm.Coef[j], sm.Coef[j])
				}
			}
		}
	}
}

// TestEngineReuseAcrossFits verifies an engine's scratch buffers are reused
// (not reallocated) across sequential fits of one shape.
func TestEngineReuseAcrossFits(t *testing.T) {
	_, d, f, _ := synthProblem(306, 8, 40, false, []int{2, 5}, []float64{1, -1}, 0.01)
	eng := NewEngine(1)
	xi := eng.xiBuf(d.Cols())
	res := eng.resBuf(d.Rows())
	for range 3 {
		if _, err := fitPathWithEngine(context.Background(), eng, &OMP{}, d, f, 4); err != nil {
			t.Fatal(err)
		}
	}
	if &eng.xi[0] != &xi[0] || &eng.res[0] != &res[0] {
		t.Fatal("engine scratch buffers were reallocated across fits of identical shape")
	}
}
