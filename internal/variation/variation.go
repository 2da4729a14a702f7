// Package variation models semiconductor process variation: the substitute
// for the commercial 65 nm PDK's foundry variation data used by the paper.
//
// Each device parameter deviation is composed of three jointly-normal
// contributions:
//
//   - an inter-die (global) component shared by every device on the die,
//   - a spatially-correlated intra-die component realized by a coarse grid
//     of region factors with bilinear interpolation, and
//   - a per-device local mismatch component following the Pelgrom model,
//     σ = A/√(W·L).
//
// The composition is expressed directly as a linear map from independent
// standard-normal factors ΔY onto device parameter deltas ΔX — the exact
// output format of the PCA preprocessing in the paper's Section II.
package variation

import (
	"fmt"
	"math"
	"strings"
)

// ParamKind identifies a varying device parameter.
type ParamKind int

// Parameter kinds.
const (
	VTH   ParamKind = iota // threshold voltage shift (V)
	Beta                   // relative transconductance-factor shift (fraction)
	RWire                  // relative interconnect resistance shift (fraction)
	CWire                  // relative interconnect capacitance shift (fraction)
	numKinds
)

// String names the parameter kind.
func (k ParamKind) String() string {
	switch k {
	case VTH:
		return "VTH"
	case Beta:
		return "BETA"
	case RWire:
		return "RWIRE"
	case CWire:
		return "CWIRE"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// ParseKind resolves a parameter kind from its case-insensitive name
// ("vth", "beta", "rwire", "cwire") — the inverse of ParamKind.String.
func ParseKind(s string) (ParamKind, error) {
	for k := ParamKind(0); k < numKinds; k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("variation: unknown parameter kind %q (want vth, beta, rwire or cwire)", s)
}

// Device describes one varying element (a transistor or a wire segment).
type Device struct {
	// Name identifies the device in diagnostics.
	Name string
	// W, L are the device dimensions in µm (used by the Pelgrom model).
	W, L float64
	// X, Y is the layout position in µm (used by spatial correlation).
	X, Y float64
	// Kinds lists which parameters of this device vary.
	Kinds []ParamKind
}

// Spec configures a variation space.
type Spec struct {
	// Devices are the varying elements.
	Devices []Device
	// InterDieSigma is the standard deviation of the global (die-to-die)
	// component per parameter kind. Kinds with zero sigma have no global
	// factor.
	InterDieSigma map[ParamKind]float64
	// PelgromA is the local mismatch area coefficient per kind: the local
	// standard deviation of a device is A/√(W·L). Kinds with zero A have no
	// local factors.
	PelgromA map[ParamKind]float64
	// SpatialSigma is the standard deviation of the spatially-correlated
	// intra-die component per kind (zero disables it).
	SpatialSigma map[ParamKind]float64
	// GridNX, GridNY set the spatial factor grid (≥ 2 each when any
	// SpatialSigma is nonzero).
	GridNX, GridNY int
	// DieW, DieH are the die dimensions in µm for grid placement.
	DieW, DieH float64
}

// factorRef describes one additive contribution to a device parameter.
type factorRef struct {
	factor int     // index into ΔY
	weight float64 // contribution of one sigma of the factor
}

// Space is a built variation space: a sparse linear map from independent
// standard-normal factors ΔY to per-device parameter deltas.
type Space struct {
	spec Spec
	dim  int
	// contrib[d][k] lists the factors feeding parameter k of device d.
	contrib [][numKinds][]factorRef
	// names[f] documents factor f for reports.
	names []string
}

// Build compiles a Spec into a Space. The factor ordering is deterministic:
// global factors first, then spatial grid factors, then per-device local
// mismatch factors in device order.
func Build(spec Spec) (*Space, error) {
	if len(spec.Devices) == 0 {
		return nil, fmt.Errorf("variation: no devices in spec")
	}
	s := &Space{spec: spec, contrib: make([][numKinds][]factorRef, len(spec.Devices))}

	// Global inter-die factors.
	globalFactor := make(map[ParamKind]int)
	for k := ParamKind(0); k < numKinds; k++ {
		if spec.InterDieSigma[k] > 0 {
			globalFactor[k] = s.dim
			s.names = append(s.names, fmt.Sprintf("global/%s", k))
			s.dim++
		}
	}

	// Spatial grid factors.
	spatialBase := make(map[ParamKind]int)
	anySpatial := false
	for k := ParamKind(0); k < numKinds; k++ {
		if spec.SpatialSigma[k] > 0 {
			anySpatial = true
		}
	}
	if anySpatial {
		if spec.GridNX < 2 || spec.GridNY < 2 {
			return nil, fmt.Errorf("variation: spatial correlation needs GridNX, GridNY ≥ 2, got %dx%d", spec.GridNX, spec.GridNY)
		}
		if spec.DieW <= 0 || spec.DieH <= 0 {
			return nil, fmt.Errorf("variation: spatial correlation needs positive die dimensions")
		}
		for k := ParamKind(0); k < numKinds; k++ {
			if spec.SpatialSigma[k] > 0 {
				spatialBase[k] = s.dim
				for gy := 0; gy < spec.GridNY; gy++ {
					for gx := 0; gx < spec.GridNX; gx++ {
						s.names = append(s.names, fmt.Sprintf("spatial/%s[%d,%d]", k, gx, gy))
						s.dim++
					}
				}
			}
		}
	}

	// Wire contributions in place: assemble per-device refs.
	for di, dev := range spec.Devices {
		for _, k := range dev.Kinds {
			if k < 0 || k >= numKinds {
				return nil, fmt.Errorf("variation: device %s has invalid kind %d", dev.Name, k)
			}
			var refs []factorRef
			if sg := spec.InterDieSigma[k]; sg > 0 {
				refs = append(refs, factorRef{factor: globalFactor[k], weight: sg})
			}
			if sp := spec.SpatialSigma[k]; sp > 0 {
				w := bilinear(dev.X, dev.Y, spec)
				for _, bw := range w {
					refs = append(refs, factorRef{
						factor: spatialBase[k] + bw.cell,
						weight: sp * bw.w,
					})
				}
			}
			if a := spec.PelgromA[k]; a > 0 {
				if dev.W <= 0 || dev.L <= 0 {
					return nil, fmt.Errorf("variation: device %s needs positive W·L for mismatch", dev.Name)
				}
				sigma := a / math.Sqrt(dev.W*dev.L)
				refs = append(refs, factorRef{factor: s.dim, weight: sigma})
				s.names = append(s.names, fmt.Sprintf("local/%s/%s", dev.Name, k))
				s.dim++
			}
			s.contrib[di][k] = refs
		}
	}
	if s.dim == 0 {
		return nil, fmt.Errorf("variation: spec produces no random factors")
	}
	return s, nil
}

// cellWeight is one bilinear interpolation weight.
type cellWeight struct {
	cell int
	w    float64
}

// bilinear returns normalized grid weights for a position such that the
// variance of the interpolated field is 1 at every point (weights are
// L2-normalized), giving smooth spatial correlation between neighbors.
func bilinear(x, y float64, spec Spec) []cellWeight {
	nx, ny := spec.GridNX, spec.GridNY
	fx := clamp(x/spec.DieW, 0, 1) * float64(nx-1)
	fy := clamp(y/spec.DieH, 0, 1) * float64(ny-1)
	ix, iy := int(fx), int(fy)
	if ix >= nx-1 {
		ix = nx - 2
	}
	if iy >= ny-1 {
		iy = ny - 2
	}
	tx, ty := fx-float64(ix), fy-float64(iy)
	raw := []cellWeight{
		{cell: iy*nx + ix, w: (1 - tx) * (1 - ty)},
		{cell: iy*nx + ix + 1, w: tx * (1 - ty)},
		{cell: (iy+1)*nx + ix, w: (1 - tx) * ty},
		{cell: (iy+1)*nx + ix + 1, w: tx * ty},
	}
	// L2 normalization keeps the marginal variance exactly 1.
	norm := 0.0
	for _, c := range raw {
		norm += c.w * c.w
	}
	norm = math.Sqrt(norm)
	out := raw[:0]
	for _, c := range raw {
		if c.w != 0 {
			out = append(out, cellWeight{cell: c.cell, w: c.w / norm})
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Dim returns the number of independent standard-normal factors N.
func (s *Space) Dim() int { return s.dim }

// FactorName documents factor f.
func (s *Space) FactorName(f int) string { return s.names[f] }

// Delta evaluates the parameter deviation of kind k for device d given the
// factor vector dy (length Dim).
func (s *Space) Delta(d int, k ParamKind, dy []float64) float64 {
	if len(dy) != s.dim {
		panic(fmt.Sprintf("variation: Delta factor vector length %d, want %d", len(dy), s.dim))
	}
	v := 0.0
	for _, r := range s.contrib[d][k] {
		v += r.weight * dy[r.factor]
	}
	return v
}
