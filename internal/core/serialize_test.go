package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/basis"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	b := basis.Quadratic(4) // M = 15
	env := &Envelope{
		Model: &Model{M: b.Size(), Support: []int{0, 3, 11}, Coef: []float64{1, -0.5, 0.25}},
		Basis: b.Desc,
		Prov: Provenance{
			Solver: "OMP", Lambda: 3, CVError: 0.012, Folds: 4, Samples: 200, Metric: "gain",
		},
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version":1`) {
		t.Fatalf("envelope is not versioned: %s", buf.String())
	}
	back, err := ReadEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Basis != env.Basis {
		t.Errorf("basis descriptor changed: %+v -> %+v", env.Basis, back.Basis)
	}
	if back.Prov != env.Prov {
		t.Errorf("provenance changed: %+v -> %+v", env.Prov, back.Prov)
	}
	if back.Model.M != env.Model.M || len(back.Model.Support) != 3 {
		t.Fatalf("model changed: %+v", back.Model)
	}
	// The descriptor must be enough to re-evaluate the model.
	rb, err := back.Basis.Build()
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{0.5, -1, 0.25, 2}
	if got, want := back.Model.PredictPoint(rb, y), env.Model.PredictPoint(b, y); got != want {
		t.Fatalf("rebuilt prediction %g, want %g", got, want)
	}
}

func TestReadEnvelopeAcceptsLegacyForm(t *testing.T) {
	legacy := `{"m":10,"support":[2,7],"coef":[1.5,-2]}`
	env, err := ReadEnvelope(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if !env.Basis.IsZero() {
		t.Errorf("legacy model should have zero descriptor, got %+v", env.Basis)
	}
	if env.Model.M != 10 || len(env.Model.Support) != 2 {
		t.Fatalf("legacy model mangled: %+v", env.Model)
	}
	// WriteJSON (the legacy writer) must still round-trip through the new
	// reader.
	var buf bytes.Buffer
	if err := env.Model.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "version") {
		t.Fatalf("WriteJSON should emit the legacy layout, got %s", buf.String())
	}
	if _, err := ReadEnvelope(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejectsInconsistent(t *testing.T) {
	cases := map[string]string{
		"basis/model size mismatch": `{"version":1,"m":10,"support":[1],"coef":[2],"basis":{"kind":"linear","dim":4}}`,
		"unknown basis kind":        `{"version":1,"m":5,"support":[],"coef":[],"basis":{"kind":"fourier","dim":4}}`,
		"future version":            `{"version":99,"m":5,"support":[],"coef":[]}`,
		"corrupt support":           `{"version":1,"m":5,"support":[9],"coef":[1],"basis":{"kind":"linear","dim":4}}`,
	}
	for name, in := range cases {
		if _, err := ReadEnvelope(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteEnvelopeValidates(t *testing.T) {
	env := &Envelope{
		Model: &Model{M: 3, Support: []int{0, 0}, Coef: []float64{1, 2}},
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err == nil {
		t.Fatal("expected duplicate-support error")
	}
}
