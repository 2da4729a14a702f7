package spice

import (
	"fmt"
	"math"
)

// resistor is a linear two-terminal resistance.
type resistor struct {
	id   string
	a, b NodeID
	g    float64 // conductance
}

func (r *resistor) stamp(ctx *stampCtx) {
	ctx.addA(r.a, r.a, r.g)
	ctx.addA(r.b, r.b, r.g)
	ctx.addA(r.a, r.b, -r.g)
	ctx.addA(r.b, r.a, -r.g)
}

// AddResistor connects a resistance of r ohms between nodes a and b.
func (c *Circuit) AddResistor(name string, a, b NodeID, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("spice: resistor %s has non-positive resistance %g", name, r))
	}
	c.devices = append(c.devices, &resistor{id: name, a: a, b: b, g: 1 / r})
}

// capacitor uses a backward-Euler or trapezoidal companion model in
// transient analysis and is an open circuit in DC. iPrev carries the
// capacitor current across trapezoidal steps.
type capacitor struct {
	id    string
	a, b  NodeID
	c     float64
	iPrev float64
}

func (cp *capacitor) stamp(ctx *stampCtx) {
	if ctx.dt == 0 {
		return // open in DC
	}
	g := cp.c / ctx.dt
	ieq := 0.0
	vdPrev := ctx.vPrev(cp.a) - ctx.vPrev(cp.b)
	if ctx.trap {
		// Trapezoidal: i = (2C/h)·(vd − vdPrev) − iPrev.
		g *= 2
		ieq = g*vdPrev + cp.iPrev
	} else {
		// Backward Euler: i = (C/h)·(vd − vdPrev).
		ieq = g * vdPrev
	}
	ctx.addA(cp.a, cp.a, g)
	ctx.addA(cp.b, cp.b, g)
	ctx.addA(cp.a, cp.b, -g)
	ctx.addA(cp.b, cp.a, -g)
	ctx.addB(cp.a, ieq)
	ctx.addB(cp.b, -ieq)
}

// AddCapacitor connects a capacitance of f farads between nodes a and b.
func (c *Circuit) AddCapacitor(name string, a, b NodeID, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("spice: capacitor %s has non-positive capacitance %g", name, f))
	}
	c.devices = append(c.devices, &capacitor{id: name, a: a, b: b, c: f})
}

// currentSource pushes current from node a to node b.
type currentSource struct {
	id    string
	a, b  NodeID
	wave  Waveform
	acMag float64 // AC stimulus magnitude (0 = open in AC)
}

func (cs *currentSource) stamp(ctx *stampCtx) {
	i := cs.wave.At(ctx.t)
	ctx.addB(cs.a, -i)
	ctx.addB(cs.b, i)
}

// AddCurrentSource connects a current source driving wave amps from a to b.
func (c *Circuit) AddCurrentSource(name string, a, b NodeID, wave Waveform) {
	c.devices = append(c.devices, &currentSource{id: name, a: a, b: b, wave: wave})
}

// voltageSource is an ideal source handled with an MNA branch current. The
// branch unknown's index is numNodes + ord, resolved at stamp time because
// nodes may still be created after the source is added.
type voltageSource struct {
	id    string
	p, m  NodeID
	wave  Waveform
	acMag float64 // AC stimulus magnitude (0 = short in AC)
	ord   int     // ordinal among voltage sources
}

func (vs *voltageSource) stamp(ctx *stampCtx) {
	bi := NodeID(ctx.nNodes + vs.ord)
	ctx.addA(vs.p, bi, 1)
	ctx.addA(vs.m, bi, -1)
	ctx.addA(bi, vs.p, 1)
	ctx.addA(bi, vs.m, -1)
	ctx.addB(bi, vs.wave.At(ctx.t))
}

// AddVoltageSource connects an ideal voltage source (plus, minus) following
// wave. The branch current becomes an internal MNA unknown.
func (c *Circuit) AddVoltageSource(name string, plus, minus NodeID, wave Waveform) {
	c.devices = append(c.devices, &voltageSource{id: name, p: plus, m: minus, wave: wave, ord: c.branchCount})
	c.vsrcBranches = append(c.vsrcBranches, c.branchCount)
	c.branchCount++
}

// vccs is a voltage-controlled current source: i(out) = gm·v(ctrl).
type vccs struct {
	id           string
	outP, outM   NodeID
	ctrlP, ctrlM NodeID
	gm           float64
}

func (v *vccs) stamp(ctx *stampCtx) {
	ctx.addA(v.outP, v.ctrlP, v.gm)
	ctx.addA(v.outP, v.ctrlM, -v.gm)
	ctx.addA(v.outM, v.ctrlP, -v.gm)
	ctx.addA(v.outM, v.ctrlM, v.gm)
}

// AddVCCS connects a transconductance element: a current gm·(v(ctrlP) −
// v(ctrlM)) flows through the device from outP to outM (i.e. it is drawn out
// of node outP and returned at outM).
func (c *Circuit) AddVCCS(name string, outP, outM, ctrlP, ctrlM NodeID, gm float64) {
	c.devices = append(c.devices, &vccs{id: name, outP: outP, outM: outM, ctrlP: ctrlP, ctrlM: ctrlM, gm: gm})
}

// diode is an exponential junction with Newton linearization.
type diode struct {
	id   string
	a, b NodeID // anode, cathode
	is   float64
	vt   float64
}

func (d *diode) stamp(ctx *stampCtx) {
	vd := ctx.v(d.a) - ctx.v(d.b)
	// Limit the exponent for robustness.
	const vdMax = 0.9
	if vd > vdMax {
		vd = vdMax
	}
	e := math.Exp(vd / d.vt)
	i := d.is * (e - 1)
	g := d.is * e / d.vt
	if g < 1e-12 {
		g = 1e-12
	}
	ieq := i - g*vd
	ctx.addA(d.a, d.a, g)
	ctx.addA(d.b, d.b, g)
	ctx.addA(d.a, d.b, -g)
	ctx.addA(d.b, d.a, -g)
	ctx.addB(d.a, -ieq)
	ctx.addB(d.b, ieq)
}

// AddDiode connects a junction diode with saturation current is between
// anode a and cathode b.
func (c *Circuit) AddDiode(name string, a, b NodeID, is float64) {
	c.devices = append(c.devices, &diode{id: name, a: a, b: b, is: is, vt: 0.025852})
}

// MOSType selects the polarity of a MOSFET.
type MOSType int

// MOSFET polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSParams are square-law (SPICE level-1) model parameters.
type MOSParams struct {
	Type MOSType
	// VT is the threshold voltage (positive number for both polarities).
	VT float64
	// Beta is the transconductance factor µ·Cox·W/L in A/V².
	Beta float64
	// Lambda is the channel-length modulation in 1/V.
	Lambda float64
	// Cgs and Cgd are optional fixed gate capacitances (F). Non-zero values
	// add gate loading and the Miller feedthrough that dominates switching
	// delay in practice; zero (the default) omits them.
	Cgs, Cgd float64
}

// mosfet is a three-terminal square-law transistor (bulk tied to source).
type mosfet struct {
	id      string
	d, g, s NodeID
	p       MOSParams
}

// ids computes the drain current and its partial derivatives for an NMOS
// with vgs, vds ≥ 0 conventions already applied.
func squareLawIDS(vgs, vds float64, p MOSParams) (i, gm, gds float64) {
	vov := vgs - p.VT
	if vov <= 0 {
		return 0, 0, 0
	}
	clm := 1 + p.Lambda*vds
	if vds < vov {
		// Triode.
		i = p.Beta * (vov*vds - vds*vds/2) * clm
		gm = p.Beta * vds * clm
		gds = p.Beta*(vov-vds)*clm + p.Beta*(vov*vds-vds*vds/2)*p.Lambda
	} else {
		// Saturation.
		i = p.Beta / 2 * vov * vov * clm
		gm = p.Beta * vov * clm
		gds = p.Beta / 2 * vov * vov * p.Lambda
	}
	return i, gm, gds
}

func (m *mosfet) stamp(ctx *stampCtx) {
	vd, vg, vs := ctx.v(m.d), ctx.v(m.g), ctx.v(m.s)
	if m.p.Type == PMOS {
		// Analyze the PMOS as an NMOS in a globally polarity-flipped frame.
		// Conductance stamps are invariant under the flip; equivalent
		// current sources change sign (handled below).
		vd, vg, vs = -vd, -vg, -vs
	}
	// Source/drain swap for vds < 0 (the square law is symmetric).
	d, s := m.d, m.s
	if vd < vs {
		vd, vs = vs, vd
		d, s = s, d
	}
	vgs, vds := vg-vs, vd-vs
	i, gm, gds := squareLawIDS(vgs, vds, m.p)
	// Minimum conductance keeps the matrix nonsingular in cutoff.
	const gmin = 1e-12
	gds += gmin

	// Linearized drain current in the analysis frame:
	// i(v) ≈ ieq + gm·vgs + gds·vds.
	ieq := i - gm*vgs - gds*vds
	addCurrent := func(n NodeID, v float64) {
		if m.p.Type == PMOS {
			v = -v // currents reverse in the flipped frame
		}
		ctx.addB(n, v)
	}
	// KCL at the analysis drain: +i leaves node d.
	ctx.addA(d, m.g, gm)
	ctx.addA(d, s, -gm-gds)
	ctx.addA(d, d, gds)
	addCurrent(d, -ieq)
	// KCL at the analysis source: −i.
	ctx.addA(s, m.g, -gm)
	ctx.addA(s, s, gm+gds)
	ctx.addA(s, d, -gds)
	addCurrent(s, ieq)
}

// AddMOSFET connects a square-law MOSFET with drain d, gate g, source s.
// Non-zero Cgs/Cgd parameters attach the corresponding gate capacitors.
func (c *Circuit) AddMOSFET(name string, d, g, s NodeID, p MOSParams) {
	if p.Beta <= 0 {
		panic(fmt.Sprintf("spice: MOSFET %s has non-positive beta %g", name, p.Beta))
	}
	c.devices = append(c.devices, &mosfet{id: name, d: d, g: g, s: s, p: p})
	if p.Cgs > 0 {
		c.AddCapacitor(name+".cgs", g, s, p.Cgs)
	}
	if p.Cgd > 0 {
		c.AddCapacitor(name+".cgd", g, d, p.Cgd)
	}
}
