// Package rng provides the deterministic random sources used throughout the
// repository: seeded standard-normal streams, multivariate normal sampling
// from a covariance factor, and Latin hypercube designs. Every experiment is
// reproducible bit-for-bit from its seed.
package rng

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Source is a deterministic stream of random variates. It wraps math/rand
// with the distributions needed by the Monte Carlo engine.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Norm returns a standard normal variate.
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// NormVec fills dst (allocated when nil, length n) with independent standard
// normal variates and returns it.
func (s *Source) NormVec(dst []float64, n int) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = s.r.NormFloat64()
	}
	return dst
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Split derives an independent child stream. It consumes one value from the
// parent, so repeated Splits give distinct children.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// MVNormal samples from a zero-mean multivariate normal distribution with a
// pre-factored covariance Σ = L·Lᵀ.
type MVNormal struct {
	l   *linalg.Matrix // lower-triangular Cholesky factor of Σ
	dim int
}

// NewMVNormal builds a sampler from the covariance matrix sigma.
func NewMVNormal(sigma *linalg.Matrix) (*MVNormal, error) {
	chol, err := linalg.CholeskyFactor(sigma)
	if err != nil {
		return nil, fmt.Errorf("rng: covariance is not positive definite: %w", err)
	}
	return &MVNormal{l: chol.L(), dim: sigma.Rows}, nil
}

// Dim returns the dimensionality of the distribution.
func (mv *MVNormal) Dim() int { return mv.dim }

// Sample draws one vector into dst (allocated when nil) using src.
func (mv *MVNormal) Sample(src *Source, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, mv.dim)
	}
	z := src.NormVec(nil, mv.dim)
	// dst = L·z, exploiting the lower-triangular structure.
	for i := 0; i < mv.dim; i++ {
		row := mv.l.Row(i)
		s := 0.0
		for j := 0; j <= i; j++ {
			s += row[j] * z[j]
		}
		dst[i] = s
	}
	return dst
}

// LatinHypercube returns n samples in dim dimensions, each marginal being a
// stratified standard normal: one point per probability stratum, mapped
// through the normal quantile function. Stratification reduces the variance
// of the inner-product estimators in eq. (14) of the paper.
func LatinHypercube(src *Source, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for d := 0; d < dim; d++ {
		perm := src.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + src.Float64()) / float64(n)
			out[i][d] = NormQuantile(u)
		}
	}
	return out
}

// NormQuantile returns the standard normal quantile Φ⁻¹(p) using the
// Acklam rational approximation (relative error below 1.15e-9), refined by
// one Halley step against math.Erfc.
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients of the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// RowPoint deterministically regenerates the k-th standard-normal sampling
// point of a virtual dataset identified by seed, without any stored state.
// mc.SampleVirtual and basis.NewGeneratedDesign use the same mapping, which
// is what lets paper-scale experiments run in O(K + M) memory: the simulator
// consumes the points once and the design matrix re-derives them on demand.
//
// The generator is a splitmix64 stream keyed by (seed, k) feeding Box–Muller
// pairs: unlike math/rand it has no per-call seeding cost, which matters
// because regenerating designs call RowPoint once per row per pass.
func RowPoint(dst []float64, seed int64, k, dim int) []float64 {
	if dst == nil {
		dst = make([]float64, dim)
	}
	state := (uint64(seed)+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9 ^ (uint64(k)+1)*0x94D049BB133111EB
	for i := 0; i < dim; i += 2 {
		u1, u2 := splitmixUnit(&state), splitmixUnit(&state)
		r := math.Sqrt(-2 * math.Log(u1))
		s, c := math.Sincos(2 * math.Pi * u2)
		dst[i] = r * c
		if i+1 < dim {
			dst[i+1] = r * s
		}
	}
	return dst
}

// PointNorm returns a standard-normal draw that is a pure function of seed
// and the bits of point: the same splitmix64 and Box–Muller construction as
// RowPoint, keyed by the point itself rather than a sample index. A
// simulator that derives its observation noise from it gives the same
// answer at the same point however its calls are scheduled.
func PointNorm(seed int64, point []float64) float64 {
	state := (uint64(seed) + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	for _, v := range point {
		state = splitmix64(state ^ math.Float64bits(v))
	}
	u1, u2 := splitmixUnit(&state), splitmixUnit(&state)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// splitmixUnit advances a splitmix64 state by one step and returns its
// output as a uniform variate in (0, 1].
func splitmixUnit(state *uint64) float64 {
	*state += 0x9E3779B97F4A7C15
	return (float64(splitmix64(*state)>>11) + 1) / (1 << 53)
}

// splitmix64 is the splitmix64 output mix of z.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// primes are the bases for the Halton sequence (first 64 dims use distinct
// primes; higher dims cycle with re-randomized shifts, which keeps marginals
// uniform at the cost of some cross-dimension structure).
var haltonPrimes = []int{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
	71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
	151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
	233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
}

// radicalInverse returns the base-b radical inverse of i in [0, 1).
func radicalInverse(i, b int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(b)
		r += f * float64(i%b)
		i /= b
	}
	return r
}

// Halton returns n quasi-Monte Carlo points in dim dimensions, mapped to
// standard-normal marginals through the quantile function. A Cranley–
// Patterson rotation drawn from src randomizes the sequence, so repeated
// calls give independent unbiased randomizations. QMC fills the space more
// evenly than iid sampling, reducing the variance of the inner-product
// estimators of eq. (14) for smooth integrands.
func Halton(src *Source, n, dim int) [][]float64 {
	shifts := make([]float64, dim)
	for d := range shifts {
		shifts[d] = src.Float64()
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			b := haltonPrimes[d%len(haltonPrimes)]
			u := radicalInverse(i+1, b) + shifts[d]
			if u >= 1 {
				u -= 1
			}
			// Clamp away from {0,1} so the quantile stays finite.
			if u < 1e-12 {
				u = 1e-12
			}
			if u > 1-1e-12 {
				u = 1 - 1e-12
			}
			out[i][d] = NormQuantile(u)
		}
	}
	return out
}
