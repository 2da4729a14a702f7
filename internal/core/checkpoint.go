package core

import (
	"fmt"
	"math"
)

// CheckpointVersion is the current serialized fit-checkpoint format version.
const CheckpointVersion = 1

// FitCheckpoint is the engine's fit state as a first-class serializable
// artifact: everything a solver needs to continue a path fit exactly where
// it stopped — the selected support in admission order, the packed Cholesky
// factor of the active Gram matrix, the residual, the Gᵀ_Ω·F right-hand
// side, the recorded path prefix, and the per-solver continuation extras
// (LAR's normalized-space coefficients, STAR's running stack, StOMP's stage
// counter, CD's sparse α and grid position).
//
// Two consumption modes exist. *Exact resume* (WithResumeCheckpoint) on the
// same K samples reproduces the uninterrupted fit bit-for-bit: float64
// values survive JSON round-trips exactly (Go emits the shortest uniquely
// decodable representation), materialized columns are re-derived from the
// design deterministically, and the factor round-trips through its packed
// triangle. Resume on a *grown* sample set (rows [0,K) unchanged, new rows
// appended) is supported by the Gram-maintaining solvers, which fold each
// new row into the factor as a rank-one update instead of refactorizing.
// For data that changed in any other way the checkpoint is invalid; use
// warm-start replay (WithWarmStart) instead.
type FitCheckpoint struct {
	// Version is the checkpoint format version (CheckpointVersion).
	Version int `json:"version"`
	// Solver names the path fitter that produced the state; resume under a
	// different solver is rejected.
	Solver string `json:"solver"`
	// K and M are the sample count and dictionary size of the fit.
	K int `json:"k"`
	M int `json:"m"`
	// MaxLambda is the (pre-clamp) sparsity budget of the interrupted fit.
	MaxLambda int `json:"max_lambda"`
	// Support is the active set in admission order.
	Support []int `json:"support"`
	// Excluded lists columns ruled out as degenerate (zero-norm or linearly
	// dependent on the active set).
	Excluded []int `json:"excluded,omitempty"`
	// Residual is res = F − G_Ω·α at the checkpoint (length K).
	Residual []float64 `json:"residual"`
	// GTF is Gᵀ_Ω·F aligned with Support (Gram solvers only).
	GTF []float64 `json:"gtf,omitempty"`
	// CholL is the packed lower triangle of the active Gram factor
	// (len(Support)·(len(Support)+1)/2 entries, Gram solvers only).
	CholL []float64 `json:"chol_l,omitempty"`
	// Models and ResNorms are the recorded path prefix: the models emitted
	// before the checkpoint and their residual norms.
	Models   []*Model  `json:"models,omitempty"`
	ResNorms []float64 `json:"res_norms,omitempty"`

	// Beta is LAR's coefficient vector in normalized-column space, aligned
	// with Support.
	Beta []float64 `json:"beta,omitempty"`
	// Coef is STAR's running coefficient stack, aligned with Support.
	Coef []float64 `json:"coef,omitempty"`
	// Stage is StOMP's completed-stage counter.
	Stage int `json:"stage,omitempty"`
	// AlphaIdx/AlphaVal are CD's sparse coefficient vector.
	AlphaIdx []int     `json:"alpha_idx,omitempty"`
	AlphaVal []float64 `json:"alpha_val,omitempty"`
	// Mu is CD's penalty-grid position at the checkpoint; LastNNZ its
	// last recorded sparsity level.
	Mu      float64 `json:"mu,omitempty"`
	LastNNZ int     `json:"last_nnz,omitempty"`
}

// Validate checks the checkpoint's internal consistency so that corrupt
// bytes surface as errors at load time, never as panics or NaN fits inside
// a solver. It is deliberately exhaustive: every slice length and index the
// resume path will touch is checked here.
func (ck *FitCheckpoint) Validate() error {
	if ck.Version <= 0 || ck.Version > CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d unsupported (max %d)", ck.Version, CheckpointVersion)
	}
	if ck.Solver == "" {
		return fmt.Errorf("core: checkpoint names no solver")
	}
	if ck.K <= 0 || ck.M <= 0 {
		return fmt.Errorf("core: checkpoint K=%d M=%d invalid", ck.K, ck.M)
	}
	if ck.MaxLambda < 1 {
		return fmt.Errorf("core: checkpoint maxLambda %d invalid", ck.MaxLambda)
	}
	if len(ck.Residual) != ck.K {
		return fmt.Errorf("core: checkpoint residual has %d entries, want K=%d", len(ck.Residual), ck.K)
	}
	if err := checkFiniteVec("checkpoint residual", ck.Residual); err != nil {
		return err
	}
	seen := make(map[int]bool, len(ck.Support))
	for _, j := range ck.Support {
		if j < 0 || j >= ck.M {
			return fmt.Errorf("core: checkpoint support index %d outside [0, %d)", j, ck.M)
		}
		if seen[j] {
			return fmt.Errorf("core: checkpoint duplicate support index %d", j)
		}
		seen[j] = true
	}
	for _, j := range ck.Excluded {
		if j < 0 || j >= ck.M {
			return fmt.Errorf("core: checkpoint excluded index %d outside [0, %d)", j, ck.M)
		}
	}
	n := len(ck.Support)
	if ck.GTF != nil && len(ck.GTF) != n {
		return fmt.Errorf("core: checkpoint gtf has %d entries, want %d", len(ck.GTF), n)
	}
	if ck.CholL != nil {
		if len(ck.CholL) != n*(n+1)/2 {
			return fmt.Errorf("core: checkpoint factor has %d entries, want %d for support %d", len(ck.CholL), n*(n+1)/2, n)
		}
		if err := checkFiniteVec("checkpoint factor", ck.CholL); err != nil {
			return err
		}
	}
	if len(ck.ResNorms) != len(ck.Models) {
		return fmt.Errorf("core: checkpoint has %d residual norms for %d models", len(ck.ResNorms), len(ck.Models))
	}
	for i, m := range ck.Models {
		if m == nil {
			return fmt.Errorf("core: checkpoint model %d is null", i)
		}
		if err := validateModel(m); err != nil {
			return fmt.Errorf("core: checkpoint model %d: %w", i, err)
		}
		if m.M != ck.M {
			return fmt.Errorf("core: checkpoint model %d dictionary %d, want %d", i, m.M, ck.M)
		}
		// Recorded models are not bounded by len(Support): CD tracks its
		// active columns in AlphaIdx instead. Support-nesting, where resume
		// relies on it, is checked by prefixModels at restore time.
	}
	if ck.Beta != nil && len(ck.Beta) != n {
		return fmt.Errorf("core: checkpoint beta has %d entries, want %d", len(ck.Beta), n)
	}
	if ck.Coef != nil && len(ck.Coef) != n {
		return fmt.Errorf("core: checkpoint coef has %d entries, want %d", len(ck.Coef), n)
	}
	if ck.Stage < 0 {
		return fmt.Errorf("core: checkpoint stage %d negative", ck.Stage)
	}
	if len(ck.AlphaIdx) != len(ck.AlphaVal) {
		return fmt.Errorf("core: checkpoint alpha has %d indices for %d values", len(ck.AlphaIdx), len(ck.AlphaVal))
	}
	aseen := make(map[int]bool, len(ck.AlphaIdx))
	for i, j := range ck.AlphaIdx {
		if j < 0 || j >= ck.M {
			return fmt.Errorf("core: checkpoint alpha index %d outside [0, %d)", j, ck.M)
		}
		if aseen[j] {
			return fmt.Errorf("core: checkpoint duplicate alpha index %d", j)
		}
		aseen[j] = true
		if v := ck.AlphaVal[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: checkpoint alpha value %d is %v: %w", i, v, ErrNonFinite)
		}
	}
	if math.IsNaN(ck.Mu) || math.IsInf(ck.Mu, 0) || ck.Mu < 0 {
		return fmt.Errorf("core: checkpoint grid penalty %v invalid", ck.Mu)
	}
	if ck.LastNNZ < 0 || ck.LastNNZ > ck.M {
		return fmt.Errorf("core: checkpoint last-nnz %d outside [0, %d]", ck.LastNNZ, ck.M)
	}
	for _, v := range ck.GTF {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: checkpoint gtf entry is %v: %w", v, ErrNonFinite)
		}
	}
	for _, v := range ck.Beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: checkpoint beta entry is %v: %w", v, ErrNonFinite)
		}
	}
	for _, v := range ck.Coef {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: checkpoint coef entry is %v: %w", v, ErrNonFinite)
		}
	}
	return nil
}

// prefixModels reports whether every recorded model's support is a prefix
// of the checkpoint support — the invariant of strictly-growing solvers
// (OMP, StOMP, STAR, LAR without drops) that row-append resume relies on
// to refresh prefix coefficients through the leading Gram factor.
func (ck *FitCheckpoint) prefixModels() bool {
	for _, m := range ck.Models {
		if len(m.Support) > len(ck.Support) {
			return false
		}
		for i, idx := range m.Support {
			if ck.Support[i] != idx {
				return false
			}
		}
	}
	return true
}
