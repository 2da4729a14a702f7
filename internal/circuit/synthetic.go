package circuit

import (
	"fmt"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/hermite"
	"repro/internal/rng"
)

// Synthetic is a controlled benchmark with a known sparse ground truth: a
// randomly drawn sparse Hermite polynomial over n factors plus Gaussian
// observation noise. It exercises exactly the recovery problem of eq. (11)
// with an oracle answer, which the accuracy experiments and ablations use to
// separate solver error from substrate modeling error.
type Synthetic struct {
	dim   int
	noise float64
	model *core.Model
	b     *basis.Basis
	// seed keys the observation noise: Evaluate draws it from
	// rng.PointNorm(seed, dy), so it is a pure function of the point.
	seed int64
}

// NewSynthetic builds a synthetic benchmark: dim factors, a degree-deg
// Hermite dictionary, nnz active terms with coefficients drawn uniformly
// from ±[0.5, 1.5], and observation noise with the given standard deviation.
// The generator is deterministic in seed, and so is the noise at each point.
func NewSynthetic(seed int64, dim, deg, nnz int, noise float64) (*Synthetic, error) {
	if dim < 1 || deg < 1 || nnz < 1 {
		return nil, fmt.Errorf("circuit: invalid synthetic config dim=%d deg=%d nnz=%d", dim, deg, nnz)
	}
	var b *basis.Basis
	switch deg {
	case 1:
		b = basis.Linear(dim)
	case 2:
		b = basis.Quadratic(dim)
	default:
		b = basis.New(dim, hermite.TotalDegreeTerms(dim, deg))
	}
	if nnz > b.Size() {
		return nil, fmt.Errorf("circuit: nnz=%d exceeds dictionary size %d", nnz, b.Size())
	}
	src := rng.New(seed)
	perm := src.Perm(b.Size())
	support := append([]int(nil), perm[:nnz]...)
	coefs := make([]float64, nnz)
	for i := range coefs {
		mag := 0.5 + src.Float64()
		if src.Float64() < 0.5 {
			mag = -mag
		}
		coefs[i] = mag
	}
	return &Synthetic{
		dim:   dim,
		noise: noise,
		model: &core.Model{M: b.Size(), Support: support, Coef: coefs},
		b:     b,
		seed:  seed,
	}, nil
}

// Dim implements Simulator.
func (s *Synthetic) Dim() int { return s.dim }

// Metrics implements Simulator.
func (s *Synthetic) Metrics() []string { return []string{"f"} }

// Basis returns the dictionary the ground truth lives in.
func (s *Synthetic) Basis() *basis.Basis { return s.b }

// TrueModel returns the ground-truth sparse model (the oracle).
func (s *Synthetic) TrueModel() *core.Model { return s.model }

// Evaluate implements Simulator: ground truth plus observation noise. The
// noise is a pure function of the point's bits (and the seed), so Evaluate
// is safe for concurrent use and gives the same answer at the same point
// whatever order parallel workers call it in.
func (s *Synthetic) Evaluate(dy []float64) ([]float64, error) {
	if err := checkDim(len(dy), s.dim); err != nil {
		return nil, err
	}
	v := s.model.PredictPoint(s.b, dy)
	if s.noise > 0 {
		v += s.noise * rng.PointNorm(s.seed, dy)
	}
	return []float64{v}, nil
}

var (
	_ Simulator = (*OpAmp)(nil)
	_ Simulator = (*SRAM)(nil)
	_ Simulator = (*Synthetic)(nil)
)
