package variation

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// sigmaOf returns the total standard deviation of parameter k of device d
// (the Euclidean norm of its factor weights).
func sigmaOf(s *Space, d int, k ParamKind) float64 {
	v := 0.0
	for _, r := range s.contrib[d][k] {
		v += r.weight * r.weight
	}
	return math.Sqrt(v)
}

// factorsOf lists the factor indices feeding parameter k of device d.
func factorsOf(s *Space, d int, k ParamKind) []int {
	var out []int
	for _, r := range s.contrib[d][k] {
		out = append(out, r.factor)
	}
	return out
}

// paramRef names one (device, kind) entry of the parameter vector ΔX.
type paramRef struct {
	Device int
	Kind   ParamKind
}

// impliedCovariance materializes the covariance Σ = W·Wᵀ of the parameter
// deltas ΔX that the factor model implies, over every varying (device,
// kind) pair in order.
func impliedCovariance(s *Space) ([]paramRef, [][]float64) {
	var params []paramRef
	for d := range s.contrib {
		for k := ParamKind(0); k < numKinds; k++ {
			if len(s.contrib[d][k]) > 0 {
				params = append(params, paramRef{Device: d, Kind: k})
			}
		}
	}
	cov := make([][]float64, len(params))
	for i, pi := range params {
		cov[i] = make([]float64, len(params))
		for j, pj := range params {
			for _, a := range s.contrib[pi.Device][pi.Kind] {
				for _, b := range s.contrib[pj.Device][pj.Kind] {
					if a.factor == b.factor {
						cov[i][j] += a.weight * b.weight
					}
				}
			}
		}
	}
	return params, cov
}

func twoDeviceSpec() Spec {
	return Spec{
		Devices: []Device{
			{Name: "M1", W: 1, L: 0.06, X: 10, Y: 10, Kinds: []ParamKind{VTH, Beta}},
			{Name: "M2", W: 4, L: 0.06, X: 90, Y: 90, Kinds: []ParamKind{VTH}},
		},
		InterDieSigma: map[ParamKind]float64{VTH: 0.02},
		PelgromA:      map[ParamKind]float64{VTH: 0.005, Beta: 0.01},
	}
}

func TestBuildFactorLayout(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 1 global VTH + local VTH(M1) + local Beta(M1) + local VTH(M2) = 4.
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", s.Dim())
	}
	if !strings.HasPrefix(s.FactorName(0), "global/VTH") {
		t.Errorf("factor 0 = %q, want global/VTH", s.FactorName(0))
	}
}

func TestPelgromScaling(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	// M2 has 4× the area of M1, so its local VTH sigma is half of M1's.
	// Total sigma includes the shared global part: σ² = σ_g² + σ_loc².
	sg := 0.02
	loc1 := 0.005 / math.Sqrt(1*0.06)
	loc2 := 0.005 / math.Sqrt(4*0.06)
	want1 := math.Sqrt(sg*sg + loc1*loc1)
	want2 := math.Sqrt(sg*sg + loc2*loc2)
	if got := sigmaOf(s, 0, VTH); math.Abs(got-want1) > 1e-12 {
		t.Errorf("σ(M1,VTH) = %g, want %g", got, want1)
	}
	if got := sigmaOf(s, 1, VTH); math.Abs(got-want2) > 1e-12 {
		t.Errorf("σ(M2,VTH) = %g, want %g", got, want2)
	}
	if loc2 >= loc1 {
		t.Error("larger device must have smaller mismatch")
	}
}

func TestGlobalFactorShared(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	dy := make([]float64, s.Dim())
	dy[0] = 1 // one sigma of the global VTH factor
	d1 := s.Delta(0, VTH, dy)
	d2 := s.Delta(1, VTH, dy)
	if math.Abs(d1-0.02) > 1e-15 || math.Abs(d2-0.02) > 1e-15 {
		t.Errorf("global shift not shared: %g vs %g, want 0.02 each", d1, d2)
	}
	// The Beta of M1 has no global component.
	if got := s.Delta(0, Beta, dy); got != 0 {
		t.Errorf("Beta delta %g from a VTH global factor", got)
	}
}

func TestLocalFactorsIndependent(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	f1 := factorsOf(s, 0, VTH)
	f2 := factorsOf(s, 1, VTH)
	// They share exactly the global factor.
	shared := 0
	for _, a := range f1 {
		for _, b := range f2 {
			if a == b {
				shared++
			}
		}
	}
	if shared != 1 {
		t.Errorf("devices share %d factors, want 1 (the global)", shared)
	}
}

func TestEmpiricalSigma(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	const n = 200000
	var sum, sq float64
	dy := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		src.NormVec(dy, s.Dim())
		v := s.Delta(0, VTH, dy)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	want := sigmaOf(s, 0, VTH)
	if math.Abs(mean) > 5e-4 {
		t.Errorf("empirical mean %g, want 0", mean)
	}
	if math.Abs(sd-want)/want > 0.02 {
		t.Errorf("empirical sigma %g, want %g", sd, want)
	}
}

func TestSpatialCorrelationDecaysWithDistance(t *testing.T) {
	spec := Spec{
		Devices: []Device{
			{Name: "A", W: 1, L: 1, X: 10, Y: 10, Kinds: []ParamKind{VTH}},
			{Name: "B", W: 1, L: 1, X: 12, Y: 10, Kinds: []ParamKind{VTH}},   // near A
			{Name: "C", W: 1, L: 1, X: 190, Y: 190, Kinds: []ParamKind{VTH}}, // far corner
		},
		SpatialSigma: map[ParamKind]float64{VTH: 0.01},
		GridNX:       3, GridNY: 3,
		DieW: 200, DieH: 200,
	}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(78)
	const n = 100000
	var ab, ac, aa, bb, cc float64
	dy := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		src.NormVec(dy, s.Dim())
		va := s.Delta(0, VTH, dy)
		vb := s.Delta(1, VTH, dy)
		vc := s.Delta(2, VTH, dy)
		ab += va * vb
		ac += va * vc
		aa += va * va
		bb += vb * vb
		cc += vc * vc
	}
	corrAB := ab / math.Sqrt(aa*bb)
	corrAC := ac / math.Sqrt(aa*cc)
	if corrAB < 0.8 {
		t.Errorf("neighbors correlation %g, want high", corrAB)
	}
	if math.Abs(corrAC) > 0.1 {
		t.Errorf("far devices correlation %g, want ≈0", corrAC)
	}
	// The marginal variance must be σ² regardless of position.
	if sd := math.Sqrt(aa / n); math.Abs(sd-0.01)/0.01 > 0.03 {
		t.Errorf("marginal sigma %g, want 0.01", sd)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Error("empty spec must error")
	}
	if _, err := Build(Spec{
		Devices:      []Device{{Name: "A", Kinds: []ParamKind{VTH}}},
		SpatialSigma: map[ParamKind]float64{VTH: 1},
	}); err == nil {
		t.Error("spatial sigma without grid must error")
	}
	if _, err := Build(Spec{
		Devices:  []Device{{Name: "A", W: 0, L: 0, Kinds: []ParamKind{VTH}}},
		PelgromA: map[ParamKind]float64{VTH: 1},
	}); err == nil {
		t.Error("mismatch with zero area must error")
	}
	if _, err := Build(Spec{
		Devices: []Device{{Name: "A", Kinds: []ParamKind{VTH}}},
	}); err == nil {
		t.Error("spec without any randomness must error")
	}
}

func TestParamKindString(t *testing.T) {
	if VTH.String() != "VTH" || Beta.String() != "BETA" {
		t.Error("ParamKind names wrong")
	}
	if ParamKind(99).String() != "ParamKind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestDeltaLengthMismatchPanics(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Delta(0, VTH, make([]float64, 1))
}

func TestImpliedCovarianceMatchesMonteCarlo(t *testing.T) {
	s, err := Build(twoDeviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	params, cov := impliedCovariance(s)
	if len(params) != 3 { // M1/VTH, M1/Beta, M2/VTH
		t.Fatalf("got %d params, want 3", len(params))
	}
	src := rng.New(90)
	const n = 150000
	emp := make([][]float64, len(params))
	for i := range emp {
		emp[i] = make([]float64, len(params))
	}
	dy := make([]float64, s.Dim())
	dx := make([]float64, len(params))
	for k := 0; k < n; k++ {
		src.NormVec(dy, s.Dim())
		for i, pr := range params {
			dx[i] = s.Delta(pr.Device, pr.Kind, dy)
		}
		for i := range dx {
			for j := range dx {
				emp[i][j] += dx[i] * dx[j]
			}
		}
	}
	for i := range emp {
		for j := range emp {
			got := emp[i][j] / n
			want := cov[i][j]
			scale := math.Sqrt(cov[i][i]*cov[j][j]) + 1e-12
			if math.Abs(got-want) > 0.03*scale {
				t.Errorf("cov(%d,%d) = %g, implied %g", i, j, got, want)
			}
		}
	}
}
