package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/rng"
)

// The checkpoint suite pins the incremental-refit contract: interrupting a
// path fit, serializing its state and resuming must reproduce the
// uninterrupted path — across every solver, through a JSON round trip, and
// under -race. The tolerance is 1e-12: restore is verbatim state plus the
// same arithmetic, so the paths should in fact be bit-identical, and the
// tolerance only exists to keep the assertion honest about its claim.

const ckTol = 1e-12

// comparePaths asserts got reproduces want: identical supports in identical
// order, coefficients and residual norms within ckTol.
func comparePaths(t *testing.T, label string, got, want *Path) {
	t.Helper()
	if len(got.Models) != len(want.Models) {
		t.Fatalf("%s: path length %d, want %d", label, len(got.Models), len(want.Models))
	}
	for s, wm := range want.Models {
		gm := got.Models[s]
		if len(gm.Support) != len(wm.Support) {
			t.Fatalf("%s step %d: support size %d, want %d", label, s, len(gm.Support), len(wm.Support))
		}
		for j := range wm.Support {
			if gm.Support[j] != wm.Support[j] {
				t.Errorf("%s step %d: support[%d] = %d, want %d", label, s, j, gm.Support[j], wm.Support[j])
			}
			if d := math.Abs(gm.Coef[j] - wm.Coef[j]); d > ckTol {
				t.Errorf("%s step %d: coef[%d] = %.17g, want %.17g (Δ=%g)", label, s, j, gm.Coef[j], wm.Coef[j], d)
			}
		}
		if d := math.Abs(got.Residual[s] - want.Residual[s]); d > ckTol*(1+want.Residual[s]) {
			t.Errorf("%s step %d: residual %.17g, want %.17g", label, s, got.Residual[s], want.Residual[s])
		}
	}
}

// roundTripCheckpoint pushes the checkpoint through its JSON form, as the
// registry stores it inside its checkpoint wrapper, and validates it there.
func roundTripCheckpoint(t *testing.T, ck *FitCheckpoint) *FitCheckpoint {
	t.Helper()
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	var back FitCheckpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	return &back
}

// TestCheckpointResumeMatchesUninterrupted is the core property test: for
// every solver on every equivalence problem, a fit stopped after two path
// models, serialized, and resumed must walk the exact same path as a fit
// that was never interrupted.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	problems := equivalenceProblems()
	for _, pname := range []string{"linear-noiseless", "linear-noisy", "quad-noisy"} {
		p := problems[pname]
		for _, fitter := range equivalenceSolvers() {
			label := solverLabel(fitter) + "/" + pname
			want, err := fitter.FitPath(p.d, p.f, equivalenceMaxLambda)
			if err != nil {
				t.Fatalf("%s cold: %v", label, err)
			}

			plan := &CheckpointPlan{After: 2}
			partial, err := fitPathContext(WithCheckpointPlan(context.Background(), plan), fitter, p.d, p.f, equivalenceMaxLambda)
			if err != nil {
				t.Fatalf("%s interrupted: %v", label, err)
			}
			if plan.CK == nil {
				t.Fatalf("%s: no checkpoint captured", label)
			}
			if len(partial.Models) > len(want.Models) {
				t.Fatalf("%s: interrupted path longer (%d) than full path (%d)", label, len(partial.Models), len(want.Models))
			}

			ck := roundTripCheckpoint(t, plan.CK)
			got, err := fitPathContext(WithResumeCheckpoint(context.Background(), ck), fitter, p.d, p.f, equivalenceMaxLambda)
			if err != nil {
				t.Fatalf("%s resume: %v", label, err)
			}
			comparePaths(t, label, got, want)
		}
	}
}

// TestCheckpointResumeRejectsWrongSolver pins the wiring guard: a checkpoint
// armed for a different solver is an error, not a silent cold fit.
func TestCheckpointResumeRejectsWrongSolver(t *testing.T) {
	p := equivalenceProblems()["linear-noiseless"]
	plan := &CheckpointPlan{After: 1}
	if _, err := fitPathContext(WithCheckpointPlan(context.Background(), plan), &OMP{}, p.d, p.f, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := fitPathContext(WithResumeCheckpoint(context.Background(), plan.CK), &STAR{}, p.d, p.f, 4); err == nil {
		t.Fatal("STAR accepted an OMP checkpoint")
	}
	if _, err := fitPathContext(WithResumeCheckpoint(context.Background(), plan.CK), &CD{}, p.d, p.f, 4); err == nil {
		t.Fatal("CD accepted an OMP checkpoint")
	}
}

// appendProblem builds a noiseless synthetic problem of kAll rows whose
// leading kParent rows form the parent data set — the append-only contract
// of streaming refit.
func appendProblem(t *testing.T, kParent, kAll int) (parentD basis.Design, parentF []float64, allD basis.Design, allF []float64) {
	t.Helper()
	_, d, f, _ := synthProblem(301, 40, kAll, false, []int{2, 9, 17, 30}, []float64{2.5, -1.25, 0.75, 1.5}, 0)
	rows := make([]int, kParent)
	for i := range rows {
		rows[i] = i
	}
	return Subset(d, rows), f[:kParent], d, f
}

// TestCheckpointAppendRowsMatchesColdRefit validates the rank-one AppendRows
// fold: resuming a natural-end checkpoint on a grown sample set must leave
// every recorded prefix model equal to an unpenalized least-squares refit of
// its support on the enlarged data — the same answer a from-scratch
// refactorization would give, without paying for one.
func TestCheckpointAppendRowsMatchesColdRefit(t *testing.T) {
	parentD, parentF, allD, allF := appendProblem(t, 60, 75)
	for _, fitter := range []ContextFitter{&OMP{}, &StOMP{}} {
		label := fitter.Name()
		plan := &CheckpointPlan{} // After == 0: capture at the natural end
		if _, err := fitPathContext(WithCheckpointPlan(context.Background(), plan), fitter, parentD, parentF, 4); err != nil {
			t.Fatalf("%s parent fit: %v", label, err)
		}
		ck := roundTripCheckpoint(t, plan.CK)

		got, err := fitPathContext(WithResumeCheckpoint(context.Background(), ck), fitter, allD, allF, 4)
		if err != nil {
			t.Fatalf("%s grown resume: %v", label, err)
		}
		if len(got.Models) < len(ck.Models) {
			t.Fatalf("%s: resumed path lost prefix models (%d < %d)", label, len(got.Models), len(ck.Models))
		}
		for s := range ck.Models {
			m := got.Models[s]
			refit, err := refitOnSupport(allD, allF, m.Support)
			if err != nil {
				t.Fatalf("%s step %d refit: %v", label, s, err)
			}
			for j := range refit {
				if d := math.Abs(m.Coef[j] - refit[j]); d > 1e-8 {
					t.Errorf("%s step %d: coef[%d] = %.17g, refit says %.17g (Δ=%g)", label, s, j, m.Coef[j], refit[j], d)
				}
			}
		}
	}
}

// TestCheckpointAppendRowsRejectedWhereInvalid pins the refusal paths: LAR's
// normalization and CD's 1/K-scaled grid make appended samples invalid, and
// shrunk designs are invalid everywhere.
func TestCheckpointAppendRowsRejectedWhereInvalid(t *testing.T) {
	parentD, parentF, allD, allF := appendProblem(t, 60, 75)
	for _, fitter := range []ContextFitter{&LAR{}, &CD{}, &STAR{}} {
		plan := &CheckpointPlan{}
		if _, err := fitPathContext(WithCheckpointPlan(context.Background(), plan), fitter, parentD, parentF, 4); err != nil {
			t.Fatalf("%s parent fit: %v", fitter.Name(), err)
		}
		if _, err := fitPathContext(WithResumeCheckpoint(context.Background(), plan.CK), fitter, allD, allF, 4); err == nil {
			t.Errorf("%s accepted a grown design on resume", fitter.Name())
		}
	}
	// Shrunk design: fewer rows than the checkpoint — invalid for everyone.
	plan := &CheckpointPlan{}
	if _, err := fitPathContext(WithCheckpointPlan(context.Background(), plan), &OMP{}, allD, allF, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := fitPathContext(WithResumeCheckpoint(context.Background(), plan.CK), &OMP{}, parentD, parentF, 4); err == nil {
		t.Error("OMP accepted a shrunk design on resume")
	}
}

// TestWarmStartReplaySpeedsSelection pins warm replay's semantics: the
// warm-started fit must record the replayed support in its inherited order
// with honestly refit coefficients, then continue normal selection.
func TestWarmStartReplay(t *testing.T) {
	_, parentF, allD, allF := appendProblem(t, 60, 75)
	_ = parentF
	cold, err := (&OMP{}).FitPath(allD, allF, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold.Models[len(cold.Models)-1]

	got, err := fitPathContext(WithWarmStart(context.Background(), warm), &OMP{}, allD, allF, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Models) == 0 {
		t.Fatal("warm replay recorded no models")
	}
	last := got.Models[len(got.Models)-1]
	if len(last.Support) != len(warm.Support) {
		t.Fatalf("warm replay support size %d, want %d", len(last.Support), len(warm.Support))
	}
	for j, idx := range warm.Support {
		if last.Support[j] != idx {
			t.Errorf("warm replay support[%d] = %d, want %d (inherited order)", j, last.Support[j], idx)
		}
		if d := math.Abs(last.Coef[j] - warm.Coef[j]); d > ckTol {
			t.Errorf("warm replay coef[%d] = %.17g, want %.17g", j, last.Coef[j], warm.Coef[j])
		}
	}

	// A warm start whose dictionary does not match is an error.
	bad := &Model{M: warm.M + 1, Support: []int{0}, Coef: []float64{1}}
	if _, err := fitPathContext(WithWarmStart(context.Background(), bad), &OMP{}, allD, allF, 4); err == nil {
		t.Error("warm start with mismatched dictionary accepted")
	}
	// Out-of-range or stale support entries are skipped, not fatal.
	stale := &Model{M: warm.M, Support: []int{warm.Support[0], warm.M - 1}, Coef: []float64{1, 1}}
	if _, err := fitPathContext(WithWarmStart(context.Background(), stale), &OMP{}, allD, allF, 4); err != nil {
		t.Errorf("warm start with skippable support failed: %v", err)
	}
}

// TestCrossValidateScrubsCheckpointState pins the fold hygiene rule: fold
// fits run on row subsets, so CV under an armed resume checkpoint must not
// fail (folds scrub it) and must still capture the *final* refit's state.
func TestCrossValidateScrubsCheckpointState(t *testing.T) {
	_, _, allD, allF := appendProblem(t, 60, 75)
	plan := &CheckpointPlan{}
	ctx := WithCheckpointPlan(context.Background(), plan)
	cv, err := CrossValidateCtx(ctx, &OMP{}, allD, allF, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CK == nil {
		t.Fatal("CV did not capture the final refit's checkpoint")
	}
	if plan.CK.K != len(allF) {
		t.Fatalf("captured checkpoint has K=%d, want the full %d (a fold fit raced the capture)", plan.CK.K, len(allF))
	}
	// Resuming CV with the captured checkpoint must work: folds scrub the
	// checkpoint (their row subsets would violate it) while the final refit
	// consumes it.
	rctx := WithResumeCheckpoint(WithWarmStart(context.Background(), cv.Model), plan.CK)
	cv2, err := CrossValidateCtx(rctx, &OMP{}, allD, allF, 3, 4)
	if err != nil {
		t.Fatalf("CV under resume checkpoint: %v", err)
	}
	if cv2.Model == nil {
		t.Fatal("warm CV returned no model")
	}
}

// BenchmarkRefineWarmVsCold measures the tentpole speedup at paper scale:
// K = 500 parent samples, 20% appended (600 total), M = 5050 quadratic
// dictionary. "cold" is a full cross-validated fit on the enlarged data;
// "warm" is the refine path — fold fits warm-replay the parent support
// (no correlation sweeps for inherited bases) and the final refit resumes
// the parent checkpoint, folding the appended rows in as rank-one updates.
// The acceptance bar is warm ≤ 50% of cold.
func BenchmarkRefineWarmVsCold(b *testing.B) {
	const (
		kParent = fitBenchK
		kAll    = fitBenchK * 6 / 5 // +20%
		folds   = 5
	)
	dict := basis.Quadratic(fitBenchDim)
	src := rng.New(77)
	points := make([][]float64, kAll)
	for k := range points {
		points[k] = src.NormVec(nil, fitBenchDim)
	}
	support := src.Perm(dict.Size())[:12]
	coef := src.NormVec(nil, 12)
	allD := basis.NewDenseDesign(dict, points)
	truth := &Model{M: dict.Size(), Support: support, Coef: coef}
	allF := truth.Predict(allD)
	for i := range allF {
		allF[i] += 0.01 * src.Norm()
	}
	rows := make([]int, kParent)
	for i := range rows {
		rows[i] = i
	}
	parentD := Subset(allD, rows)
	parentF := allF[:kParent]

	// Parent fit (setup, untimed): cross-validated model + final-fit
	// checkpoint, exactly what the registry stores beside a published model.
	plan := &CheckpointPlan{}
	parent, err := CrossValidateCtx(WithCheckpointPlan(context.Background(), plan), &OMP{}, parentD, parentF, folds, fitBenchLambda)
	if err != nil {
		b.Fatal(err)
	}
	if plan.CK == nil {
		b.Fatal("parent fit captured no checkpoint")
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CrossValidateCtx(context.Background(), &OMP{}, allD, allF, folds, fitBenchLambda); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ctx := WithResumeCheckpoint(WithWarmStart(context.Background(), parent.Model), plan.CK)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CrossValidateCtx(ctx, &OMP{}, allD, allF, folds, fitBenchLambda); err != nil {
				b.Fatal(err)
			}
		}
	})
}
