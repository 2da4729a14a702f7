package core

import (
	"context"
	"fmt"
	"testing"
)

// collectEvents runs one path fit under an observer and returns the events.
func collectEvents(t *testing.T, fitter PathFitter, maxLambda int) []FitEvent {
	t.Helper()
	support := []int{3, 17, 42}
	coefs := []float64{2.0, -1.5, 0.8}
	_, d, f, _ := synthProblem(7, 50, 40, false, support, coefs, 0)
	var events []FitEvent
	ctx := WithFitObserver(context.Background(), func(ev FitEvent) { events = append(events, ev) })
	if _, err := fitPathContext(ctx, fitter, d, f, maxLambda); err != nil {
		t.Fatalf("%s: %v", fitter.Name(), err)
	}
	return events
}

// TestObserverEventsPerIteration checks the telemetry contract on every
// solver: one event per recorded path step, 1-based consecutive iteration
// numbers, a growing active set, and (for greedy solvers) the selected
// basis index.
func TestObserverEventsPerIteration(t *testing.T) {
	for _, fitter := range []PathFitter{&OMP{}, &LAR{}, &LAR{Lasso: true}, &STAR{}, &StOMP{}, &CD{}} {
		t.Run(fitter.Name(), func(t *testing.T) {
			events := collectEvents(t, fitter, 3)
			if len(events) == 0 {
				t.Fatal("no events observed")
			}
			lastActive := 0
			for i, ev := range events {
				if ev.Iter != i+1 {
					t.Errorf("event %d has iter %d, want %d", i, ev.Iter, i+1)
				}
				if ev.Active < lastActive {
					t.Errorf("event %d active-set size %d shrank below %d", i, ev.Active, lastActive)
				}
				lastActive = ev.Active
				if ev.Residual < 0 {
					t.Errorf("event %d has negative residual %g", i, ev.Residual)
				}
				if ev.Elapsed < 0 {
					t.Errorf("event %d has negative elapsed %v", i, ev.Elapsed)
				}
				if ev.Stage != "" {
					t.Errorf("event %d carries stage %q without WithFitStage", i, ev.Stage)
				}
			}
			switch fitter.(type) {
			case *OMP, *LAR, *STAR:
				for i, ev := range events {
					if ev.Basis < 0 {
						t.Errorf("greedy solver event %d has no basis index", i)
					}
				}
			default: // batch solvers report Basis = -1
				for i, ev := range events {
					if ev.Basis != -1 {
						t.Errorf("batch solver event %d has basis %d, want -1", i, ev.Basis)
					}
				}
			}
		})
	}
}

// TestObserverResidualDecreasesForOMP checks the per-iteration residual is
// the actual path residual: OMP's re-fit guarantees it is non-increasing.
func TestObserverResidualDecreasesForOMP(t *testing.T) {
	events := collectEvents(t, &OMP{}, 3)
	for i := 1; i < len(events); i++ {
		if events[i].Residual > events[i-1].Residual+1e-12 {
			t.Fatalf("residual rose from %g to %g at iteration %d",
				events[i-1].Residual, events[i].Residual, events[i].Iter)
		}
	}
}

// TestObserverStagesThroughCrossValidation checks that CrossValidateCtx
// labels fold fits and the final refit so a job timeline can tell them
// apart, and that the final stage is present with per-iteration events.
func TestObserverStagesThroughCrossValidation(t *testing.T) {
	support := []int{3, 17, 42}
	coefs := []float64{2.0, -1.5, 0.8}
	_, d, f, _ := synthProblem(11, 50, 40, false, support, coefs, 0)
	var events []FitEvent
	ctx := WithFitObserver(context.Background(), func(ev FitEvent) { events = append(events, ev) })
	cv, err := CrossValidateCtx(ctx, &OMP{}, d, f, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cv.BestLambda != 3 {
		t.Fatalf("BestLambda = %d, want 3", cv.BestLambda)
	}
	stages := make(map[string]int)
	for _, ev := range events {
		stages[ev.Stage]++
	}
	for q := 0; q < 4; q++ {
		if stages[fmt.Sprintf("cv-fold-%d", q)] == 0 {
			t.Errorf("no events from fold %d (stages: %v)", q, stages)
		}
	}
	if stages["final"] < cv.BestLambda {
		t.Errorf("final refit produced %d events, want ≥ %d", stages["final"], cv.BestLambda)
	}
	// Iteration numbers restart per stage fit.
	seenFinalFirst := false
	for _, ev := range events {
		if ev.Stage == "final" && ev.Iter == 1 {
			seenFinalFirst = true
		}
	}
	if !seenFinalFirst {
		t.Error("final stage never restarted iteration numbering at 1")
	}
}

// TestObserverNilSafety: path fits without an observer (and with a nil
// FitContext) must be unaffected.
func TestObserverNilSafety(t *testing.T) {
	var fc *FitContext
	fc.Observe(0, 1, 0.5) // must not panic

	support := []int{3}
	coefs := []float64{2.0}
	_, d, f, _ := synthProblem(13, 20, 30, false, support, coefs, 0)
	if _, err := (&OMP{}).FitPath(d, f, 1); err != nil {
		t.Fatal(err)
	}
	// A context without an observer exercises the no-op path.
	if _, err := fitPathContext(context.Background(), &OMP{}, d, f, 1); err != nil {
		t.Fatal(err)
	}
}
