package circuit

import (
	"fmt"
	"math"

	"repro/internal/variation"
)

// OpAmp is the two-stage Miller-compensated operational amplifier of the
// paper's Fig. 3, with an on-chip current source for biasing. Performance is
// evaluated with analytic small-signal equations over a variation space
// that matches the paper's setup: 630 independent random variables covering
// inter-die and intra-die MOS variation plus layout parasitics.
//
// The circuit structure (and hence the sparse structure of its response
// surface):
//
//   - M1/M2: input differential pair — dominates "offset" via mismatch
//   - M3/M4: current-mirror load — second-order offset contribution
//   - M5: tail current source; M8 + bias array: current reference
//   - M6/M7: second stage — gain and power
//   - Cc: Miller compensation — bandwidth, loaded by parasitic wires
//   - 266 parasitic wire segments (R and C each) with near-zero influence
type OpAmp struct {
	space *variation.Space

	// Device indices into the variation space.
	m1, m2, m3, m4, m5, m6, m7, m8 int
	biasUnits                      []int
	wires                          []int

	// Nominal design values.
	vdd   float64 // supply (V)
	iref  float64 // reference current (A)
	beta1 float64 // input pair transconductance factor (A/V²)
	beta3 float64 // mirror load beta
	beta6 float64 // second-stage beta
	lam   float64 // channel-length modulation (1/V)
	cc    float64 // compensation capacitor (F)
	vt0   float64 // nominal threshold (V)
}

// opAmpWireCount is chosen so the total factor count is exactly the paper's
// 630 (see NewOpAmp's accounting).
const opAmpWireCount = 266

// NewOpAmp builds the OpAmp testbench with its 630-dimensional variation
// space.
func NewOpAmp() (*OpAmp, error) {
	o := &OpAmp{
		vdd:   1.2,
		iref:  10e-6,
		beta1: 2e-3,
		beta3: 1e-3,
		beta6: 4e-3,
		lam:   0.1,
		cc:    2e-12,
		vt0:   0.4,
	}
	var devs []variation.Device
	addT := func(name string, w, l, x, y float64) int {
		devs = append(devs, variation.Device{
			Name: name, W: w, L: l, X: x, Y: y,
			Kinds: []variation.ParamKind{variation.VTH, variation.Beta},
		})
		return len(devs) - 1
	}
	// Core transistors (positions in µm on a 100×100 die).
	o.m1 = addT("M1", 10, 0.24, 40, 50)
	o.m2 = addT("M2", 10, 0.24, 44, 50)
	o.m3 = addT("M3", 4, 0.24, 40, 60)
	o.m4 = addT("M4", 4, 0.24, 44, 60)
	o.m5 = addT("M5", 8, 0.5, 42, 40)
	o.m6 = addT("M6", 16, 0.24, 60, 55)
	o.m7 = addT("M7", 16, 0.5, 60, 45)
	o.m8 = addT("M8", 8, 0.5, 30, 40)
	// On-chip bias current source: an array of 30 mirror unit transistors.
	for i := 0; i < 30; i++ {
		idx := addT(fmt.Sprintf("MB%d", i), 2, 0.5, 10+float64(i%6), 10+float64(i/6))
		o.biasUnits = append(o.biasUnits, idx)
	}
	// Layout parasitics: wire segments with R and C variation.
	for i := 0; i < opAmpWireCount; i++ {
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("W%d", i),
			W:    0.1, L: 5,
			X: float64(5 + (i*7)%90), Y: float64(5 + (i*13)%90),
			Kinds: []variation.ParamKind{variation.RWire, variation.CWire},
		})
		o.wires = append(o.wires, len(devs)-1)
	}

	spec := variation.Spec{
		Devices: devs,
		InterDieSigma: map[variation.ParamKind]float64{
			variation.VTH:   0.015, // 15 mV global VT shift
			variation.Beta:  0.03,  // 3% global beta shift
			variation.RWire: 0.05,
			variation.CWire: 0.04,
		},
		PelgromA: map[variation.ParamKind]float64{
			variation.VTH:  0.004, // 4 mV·µm
			variation.Beta: 0.01,  // 1%·µm
			// Wire local variability.
			variation.RWire: 0.02,
			variation.CWire: 0.015,
		},
		SpatialSigma: map[variation.ParamKind]float64{
			variation.VTH:  0.005,
			variation.Beta: 0.008,
		},
		GridNX: 3, GridNY: 3,
		DieW: 100, DieH: 100,
	}
	space, err := variation.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("circuit: OpAmp variation space: %w", err)
	}
	// Factor accounting: 4 globals + 2·9 spatial + 38 transistors·2 locals +
	// 266 wires·2 locals = 4 + 18 + 76 + 532 = 630, matching the paper.
	if space.Dim() != 630 {
		return nil, fmt.Errorf("circuit: OpAmp space has %d factors, want 630", space.Dim())
	}
	o.space = space
	return o, nil
}

// Dim implements Simulator.
func (o *OpAmp) Dim() int { return o.space.Dim() }

// Metrics implements Simulator: the paper's four OpAmp metrics.
func (o *OpAmp) Metrics() []string { return []string{"gain", "bandwidth", "power", "offset"} }

// Space exposes the variation space (for diagnostics and tests).
func (o *OpAmp) Space() *variation.Space { return o.space }

// betaOf returns the effective beta of device d around nominal b0.
func (o *OpAmp) betaOf(d int, b0 float64, dy []float64) float64 {
	return b0 * (1 + o.space.Delta(d, variation.Beta, dy))
}

// Evaluate implements Simulator with the standard two-stage OpAmp
// small-signal equations.
func (o *OpAmp) Evaluate(dy []float64) ([]float64, error) {
	if err := checkDim(len(dy), o.space.Dim()); err != nil {
		return nil, err
	}
	// --- Bias generation -------------------------------------------------
	// The reference current mirrors through the 30-unit array; each unit's
	// strength varies with its beta and VT. The mirrored current follows the
	// square-law ratio at fixed gate drive VOV_b = 0.25 V.
	const vovB = 0.25
	unitSum := 0.0
	for _, u := range o.biasUnits {
		bu := 1 + o.space.Delta(u, variation.Beta, dy)
		dvt := o.space.Delta(u, variation.VTH, dy)
		vov := vovB - dvt
		if vov < 0.05 {
			vov = 0.05
		}
		unitSum += bu * (vov / vovB) * (vov / vovB)
	}
	mirror := unitSum / float64(len(o.biasUnits))
	// M8 sets the reference branch; M5 and M7 mirror with their own devices.
	b8 := 1 + o.space.Delta(o.m8, variation.Beta, dy)
	ib := o.iref * mirror / b8
	b5 := 1 + o.space.Delta(o.m5, variation.Beta, dy)
	b7 := 1 + o.space.Delta(o.m7, variation.Beta, dy)
	dvt5 := o.space.Delta(o.m5, variation.VTH, dy)
	dvt7 := o.space.Delta(o.m7, variation.VTH, dy)
	// Tail and second-stage currents (2× and 4× mirrors).
	i5 := 2 * ib * b5 * sq(1-dvt5/vovB)
	i7 := 4 * ib * b7 * sq(1-dvt7/vovB)

	// --- First stage ------------------------------------------------------
	id1 := i5 / 2
	beta1 := o.betaOf(o.m1, o.beta1, dy)
	beta2 := o.betaOf(o.m2, o.beta1, dy)
	beta3 := o.betaOf(o.m3, o.beta3, dy)
	beta4 := o.betaOf(o.m4, o.beta3, dy)
	gm1 := math.Sqrt(2 * beta1 * id1)
	gm3 := math.Sqrt(2 * beta3 * id1)
	ro1 := 1 / (2 * o.lam * id1) // ro2‖ro4 with equal λ
	a1 := gm1 * ro1

	// --- Second stage -----------------------------------------------------
	beta6 := o.betaOf(o.m6, o.beta6, dy)
	gm6 := math.Sqrt(2 * beta6 * i7)
	ro2 := 1 / (2 * o.lam * i7)
	a2 := gm6 * ro2

	// --- Parasitic aggregation --------------------------------------------
	// Wire capacitance loads the compensation node; wire resistance skews
	// the input routing. Each segment contributes a small weight, giving
	// the long tail of near-zero model coefficients seen in Fig. 6.
	capLoad, rSkew := 0.0, 0.0
	for j, w := range o.wires {
		dc := o.space.Delta(w, variation.CWire, dy)
		dr := o.space.Delta(w, variation.RWire, dy)
		capLoad += dc / float64(len(o.wires))
		// Alternating sign mimics the two input routes.
		if j%2 == 0 {
			rSkew += dr
		} else {
			rSkew -= dr
		}
	}
	rSkew /= float64(len(o.wires))

	// --- Metrics ------------------------------------------------------
	gain := a1 * a2
	ceff := o.cc * (1 + 0.5*capLoad)
	bandwidth := gm1 / (2 * math.Pi * ceff)
	power := o.vdd * (ib + i5 + i7)
	// Classic two-stage offset referred to the input.
	vov1 := math.Sqrt(2 * id1 / o.beta1)
	dvt12 := o.space.Delta(o.m1, variation.VTH, dy) - o.space.Delta(o.m2, variation.VTH, dy)
	dvt34 := o.space.Delta(o.m3, variation.VTH, dy) - o.space.Delta(o.m4, variation.VTH, dy)
	offset := dvt12 +
		(gm3/gm1)*dvt34 +
		(vov1/2)*((beta1-beta2)/o.beta1-(beta3-beta4)/o.beta3)/2 +
		2e-4*rSkew // parasitic routing asymmetry

	return []float64{gain, bandwidth, power, offset}, nil
}

func sq(x float64) float64 { return x * x }
