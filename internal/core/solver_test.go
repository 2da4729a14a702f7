package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/basis"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// fitPathContext runs fitter's path fit under ctx with a per-fit engine.
func fitPathContext(ctx context.Context, fitter PathFitter, d basis.Design, f []float64, maxLambda int) (*Path, error) {
	return fitPathWithEngine(ctx, nil, fitter, d, f, maxLambda)
}

// fitFinal fits a path of up to lambda bases and returns its last model.
func fitFinal(fitter PathFitter, d basis.Design, f []float64, lambda int) (*Model, error) {
	path, err := fitter.FitPath(d, f, lambda)
	if err != nil {
		return nil, err
	}
	return path.Models[len(path.Models)-1], nil
}

func TestSTARCoefficientIsInnerProduct(t *testing.T) {
	// STAR's first coefficient must equal ρ_s = (1/K)·G_sᵀ·F exactly
	// (eq. 14/18), with s the most correlated basis vector.
	_, d, f, _ := synthProblem(60, 20, 40, false, []int{5}, []float64{2}, 0.1)
	path, err := (&STAR{}).FitPath(d, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := path.Models[0]
	s := model.Support[0]
	col := d.Column(nil, s)
	rho := linalg.Dot(col, f) / float64(d.Rows())
	if math.Abs(model.Coef[0]-rho) > 1e-12 {
		t.Errorf("STAR coef = %g, want inner product %g", model.Coef[0], rho)
	}
}

func TestSTARAndOMPSameSelectionCriterion(t *testing.T) {
	// Both pick the basis with the largest |Gᵀ·F| at step 1.
	_, d, f, _ := synthProblem(61, 25, 50, false, []int{3, 12}, []float64{3, 1}, 0.05)
	ompPath, err := (&OMP{}).FitPath(d, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	starPath, err := (&STAR{}).FitPath(d, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ompPath.Models[0].Support[0] != starPath.Models[0].Support[0] {
		t.Errorf("first selection differs: OMP %d vs STAR %d",
			ompPath.Models[0].Support[0], starPath.Models[0].Support[0])
	}
}

func TestSTARDoesNotRefit(t *testing.T) {
	// Once selected, a STAR coefficient only changes if the basis is
	// reselected; without reselection the first coefficient stays fixed
	// along the path.
	_, d, f, _ := synthProblem(62, 30, 60, false, []int{2, 9, 18}, []float64{2, -1, 1}, 0.1)
	path, err := (&STAR{}).FitPath(d, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := path.Models[0].Support[0]
	c0 := path.Models[0].Coef[0]
	for step := 1; step < path.Len(); step++ {
		if got := path.Models[step].Coefficient(first); math.Abs(got-c0) > 1e-12 {
			// STAR never reselects in our implementation (used flag), so the
			// coefficient must be frozen.
			t.Errorf("step %d rewrote STAR coefficient: %g → %g", step, c0, got)
		}
	}
}

func TestLSExactOnDeterminedSystem(t *testing.T) {
	_, d, f, alpha := synthProblem(63, 10, 80, false, []int{0, 4, 9}, []float64{1, 2, 3}, 0)
	model, err := LS{}.Fit(d, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := model.Dense()
	for i := range alpha {
		if math.Abs(got[i]-alpha[i]) > 1e-8 {
			t.Errorf("α[%d] = %g, want %g", i, got[i], alpha[i])
		}
	}
	if model.NNZ() != d.Cols() {
		t.Errorf("LS support %d, want full %d", model.NNZ(), d.Cols())
	}
}

func TestLSRejectsUnderdetermined(t *testing.T) {
	_, d, f, _ := synthProblem(64, 50, 20, false, []int{1}, []float64{1}, 0)
	if _, err := (LS{}).Fit(d, f, 0); err == nil {
		t.Fatal("LS must reject K < M")
	}
}

func TestLSOverfitsWhereOMPDoesNot(t *testing.T) {
	// The paper's central claim: with K barely above M, LS overfits noisy
	// data while OMP with small λ generalizes. Compare held-out errors.
	support := []int{2, 7}
	coefs := []float64{1.5, -2}
	_, dTrain, fTrain, _ := synthProblem(65, 40, 45, false, support, coefs, 0.3)
	_, dTest, fTest, _ := synthProblem(66, 40, 2000, false, support, coefs, 0)

	lsModel, err := LS{}.Fit(dTrain, fTrain, 0)
	if err != nil {
		t.Fatal(err)
	}
	ompModel, err := (&OMP{}).Fit(dTrain, fTrain, 2)
	if err != nil {
		t.Fatal(err)
	}
	lsErr := stats.RelativeRMSError(lsModel.Predict(dTest), fTest)
	ompErr := stats.RelativeRMSError(ompModel.Predict(dTest), fTest)
	if ompErr >= lsErr {
		t.Errorf("OMP (%g) should generalize better than near-square LS (%g)", ompErr, lsErr)
	}
}

func TestModelDenseAndCoefficient(t *testing.T) {
	m := &Model{M: 6, Support: []int{4, 1}, Coef: []float64{2.5, -1}}
	dense := m.Dense()
	want := []float64{0, -1, 0, 0, 2.5, 0}
	for i := range want {
		if dense[i] != want[i] {
			t.Errorf("Dense[%d] = %g, want %g", i, dense[i], want[i])
		}
	}
	if m.Coefficient(4) != 2.5 || m.Coefficient(0) != 0 {
		t.Error("Coefficient lookup wrong")
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestModelPredictPoint(t *testing.T) {
	b := basis.Linear(3)
	m := &Model{M: b.Size(), Support: []int{0, 2}, Coef: []float64{1.5, 2}}
	// f(y) = 1.5·1 + 2·y₁.
	got := m.PredictPoint(b, []float64{9, 0.5, -3})
	if math.Abs(got-2.5) > 1e-14 {
		t.Errorf("PredictPoint = %g, want 2.5", got)
	}
}

func TestModelPredictPointBasisMismatchPanics(t *testing.T) {
	b := basis.Linear(3)
	m := &Model{M: 99}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PredictPoint(b, []float64{1, 2, 3})
}

func TestPathAt(t *testing.T) {
	p := &Path{Models: []*Model{{M: 1}, {M: 2}}}
	if p.At(2).M != 2 {
		t.Error("At(2) wrong model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range λ")
		}
	}()
	p.At(3)
}

func TestSubsetDesign(t *testing.T) {
	_, d, f, _ := synthProblem(67, 5, 10, false, []int{1}, []float64{1}, 0)
	sub := Subset(d, []int{1, 3, 5})
	if sub.Rows() != 3 || sub.Cols() != d.Cols() {
		t.Fatalf("subset dims %dx%d", sub.Rows(), sub.Cols())
	}
	col := sub.Column(nil, 2)
	full := d.Column(nil, 2)
	for i, r := range []int{1, 3, 5} {
		if col[i] != full[r] {
			t.Errorf("subset column[%d] = %g, want %g", i, col[i], full[r])
		}
	}
	// MulTransVec: subset with x equals full design with scattered x.
	x := []float64{0.5, -1, 2}
	got := sub.MulTransVec(nil, x)
	scattered := make([]float64, d.Rows())
	scattered[1], scattered[3], scattered[5] = 0.5, -1, 2
	want := d.MulTransVec(nil, scattered)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Errorf("subset MulTransVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	_ = f
}

func TestSubsetVisitRows(t *testing.T) {
	_, d, _, _ := synthProblem(120, 5, 10, false, []int{1}, []float64{1}, 0)
	sub := Subset(d, []int{1, 4, 7})
	var got []int
	sub.VisitRows(func(k int, row []float64) {
		got = append(got, k)
		full := d.Column(nil, 2)
		// Column 2 of the subset row must equal the full design's value at
		// the mapped row.
		mapped := []int{1, 4, 7}[k]
		if row[2] != full[mapped] {
			t.Fatalf("subset row %d col 2 = %g, want %g", k, row[2], full[mapped])
		}
	})
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("visited %v, want [0 1 2]", got)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := &Model{M: 100, Support: []int{3, 77, 12}, Coef: []float64{1.5, -2, 0.25}}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	env, err := ReadEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := env.Model
	if back.M != m.M || len(back.Support) != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range m.Support {
		if back.Support[i] != m.Support[i] || back.Coef[i] != m.Coef[i] {
			t.Fatalf("entry %d changed", i)
		}
	}
}

func TestReadModelJSONRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"mismatched lengths": `{"m":5,"support":[1,2],"coef":[1]}`,
		"bad index":          `{"m":5,"support":[9],"coef":[1]}`,
		"duplicate index":    `{"m":5,"support":[1,1],"coef":[1,2]}`,
		"bad M":              `{"m":0,"support":[],"coef":[]}`,
		"not json":           `nope`,
	}
	for name, in := range cases {
		if _, err := ReadEnvelope(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
