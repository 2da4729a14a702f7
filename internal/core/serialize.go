package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/basis"
)

// EnvelopeVersion is the current on-disk model format version.
const EnvelopeVersion = 1

// Provenance records how a model was fit — enough to audit a stored model
// and to reproduce the fit. All fields are optional.
type Provenance struct {
	// Solver names the path fitter (OMP, LAR, …).
	Solver string `json:"solver,omitempty"`
	// Lambda is the selected sparsity level ‖α‖₀.
	Lambda int `json:"lambda,omitempty"`
	// CVError is the cross-validation relative RMS error at Lambda.
	CVError float64 `json:"cv_error,omitempty"`
	// Folds is the cross-validation fold count (0 when λ was fixed).
	Folds int `json:"folds,omitempty"`
	// Samples is the training sample count K.
	Samples int `json:"samples,omitempty"`
	// Metric names the modeled response column.
	Metric string `json:"metric,omitempty"`
	// Source names the producer ("pipeline" for server-side netlist jobs,
	// empty for uploaded models).
	Source string `json:"source,omitempty"`
	// Pipeline carries end-to-end pipeline provenance when Source is
	// "pipeline". A pointer keeps Provenance comparable (and the
	// WriteEnvelope emptiness guard meaningful).
	Pipeline *PipelineProvenance `json:"pipeline,omitempty"`
	// Refine links a model version produced by incremental refit to its
	// parent version. Nil for models fit from scratch.
	Refine *RefineProvenance `json:"refine,omitempty"`
}

// RefineProvenance records how a refined model version relates to the
// version it continued from: which parent, at what error, how many samples
// arrived, and whether the fit was warm-continued or fell back to cold.
type RefineProvenance struct {
	// ParentVersion is the registry version the refit continued from.
	ParentVersion int `json:"parent_version"`
	// ParentCVError is the parent's cross-validation error — the publish
	// gate the refined model had to beat.
	ParentCVError float64 `json:"parent_cv_error,omitempty"`
	// AppendedSamples is how many new samples the refit folded in.
	AppendedSamples int `json:"appended_samples,omitempty"`
	// Warm reports whether the fit reused the parent's checkpointed state
	// (false = the solver does not support continuation and refit cold).
	Warm bool `json:"warm,omitempty"`
}

// PipelineProvenance records how a server-side pipeline job produced a
// model: the exact netlist, the measured response, the sampling mode, and
// the simulate-vs-fit cost split (the paper's Table III breakdown).
type PipelineProvenance struct {
	// NetlistSHA256 is the hex SHA-256 of the submitted netlist text.
	NetlistSHA256 string `json:"netlist_sha256,omitempty"`
	// Measure describes the extracted response (e.g. "tran_delay(out)").
	Measure string `json:"measure,omitempty"`
	// Mode is the sampling mode: "mc" or "adaptive".
	Mode string `json:"mode,omitempty"`
	// Rounds is the adaptive-loop round count (0 for plain MC).
	Rounds int `json:"rounds,omitempty"`
	// Converged reports whether adaptive sampling stopped by its accuracy
	// criterion rather than the budget.
	Converged bool `json:"converged,omitempty"`
	// SimSeconds and FitSeconds split the job's wall-clock cost.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	FitSeconds float64 `json:"fit_seconds,omitempty"`
	// Trials lists the per-solver cross-validation errors of the selection
	// stage, keyed by solver name.
	Trials map[string]float64 `json:"trials,omitempty"`
	// RecoveryAttempt, when > 0, marks a model produced by a crash-recovery
	// re-run: the job had been started that many times by previous daemon
	// processes before the run that published this model.
	RecoveryAttempt int `json:"recovery_attempt,omitempty"`
}

// Envelope is the versioned serialized form of a fitted model: the sparse
// coefficients plus the basis descriptor needed to re-evaluate it and the
// fit provenance. It is the unit stored by the model registry and shipped
// over the rsmd wire protocol.
type Envelope struct {
	// Model is the fitted sparse model.
	Model *Model
	// Basis describes the dictionary the model was fit against. Zero for
	// legacy files that predate the envelope (such models cannot be
	// re-evaluated without out-of-band basis knowledge).
	Basis basis.Descriptor
	// Prov is the optional fit provenance.
	Prov Provenance
}

// envelopeJSON is the on-disk form. Version 0 (absent) is the legacy
// model-only layout {m, support, coef}; version 1 adds basis + provenance.
type envelopeJSON struct {
	Version int               `json:"version,omitempty"`
	M       int               `json:"m"`
	Support []int             `json:"support"`
	Coef    []float64         `json:"coef"`
	Basis   *basis.Descriptor `json:"basis,omitempty"`
	Prov    *Provenance       `json:"provenance,omitempty"`
}

// Validate checks the envelope's internal consistency: a well-formed model,
// and (when a basis descriptor is present) agreement between the model's
// dictionary size and the size implied by the descriptor.
func (e *Envelope) Validate() error {
	if e.Model == nil {
		return fmt.Errorf("core: envelope has no model")
	}
	if err := validateModel(e.Model); err != nil {
		return err
	}
	if !e.Basis.IsZero() {
		if err := e.Basis.Validate(); err != nil {
			return err
		}
		if sz := e.Basis.Size(); sz != e.Model.M {
			return fmt.Errorf("core: basis %s has %d functions but model dictionary is %d", e.Basis, sz, e.Model.M)
		}
	}
	return nil
}

// WriteEnvelope serializes the envelope in the current versioned format.
func WriteEnvelope(w io.Writer, e *Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	ej := envelopeJSON{
		Version: EnvelopeVersion,
		M:       e.Model.M,
		Support: e.Model.Support,
		Coef:    e.Model.Coef,
	}
	if !e.Basis.IsZero() {
		d := e.Basis
		ej.Basis = &d
	}
	if e.Prov != (Provenance{}) {
		p := e.Prov
		ej.Prov = &p
	}
	return json.NewEncoder(w).Encode(ej)
}

// ReadEnvelope parses a serialized model in either the current versioned
// format or the legacy un-versioned {m, support, coef} form, validating its
// internal consistency.
func ReadEnvelope(r io.Reader) (*Envelope, error) {
	var ej envelopeJSON
	if err := json.NewDecoder(r).Decode(&ej); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if ej.Version > EnvelopeVersion {
		return nil, fmt.Errorf("core: model format version %d is newer than supported %d", ej.Version, EnvelopeVersion)
	}
	e := &Envelope{Model: &Model{M: ej.M, Support: ej.Support, Coef: ej.Coef}}
	if e.Model.Support == nil {
		e.Model.Support = []int{}
	}
	if e.Model.Coef == nil {
		e.Model.Coef = []float64{}
	}
	if ej.Basis != nil {
		e.Basis = *ej.Basis
	}
	if ej.Prov != nil {
		e.Prov = *ej.Prov
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// WriteJSON serializes the model so it can be reused without refitting
// (e.g. by a yield flow running long after the expensive sampling). It emits
// the legacy model-only layout; prefer WriteEnvelope, which also records the
// basis descriptor and provenance.
func (m *Model) WriteJSON(w io.Writer) error {
	if err := validateModel(m); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(envelopeJSON{M: m.M, Support: m.Support, Coef: m.Coef})
}

// validateModel checks the sparse coefficient structure.
func validateModel(m *Model) error {
	if len(m.Support) != len(m.Coef) {
		return fmt.Errorf("core: model has %d support entries but %d coefficients", len(m.Support), len(m.Coef))
	}
	if m.M <= 0 {
		return fmt.Errorf("core: model dictionary size %d invalid", m.M)
	}
	seen := make(map[int]bool, len(m.Support))
	for _, s := range m.Support {
		if s < 0 || s >= m.M {
			return fmt.Errorf("core: support index %d outside [0, %d)", s, m.M)
		}
		if seen[s] {
			return fmt.Errorf("core: duplicate support index %d", s)
		}
		seen[s] = true
	}
	return nil
}
