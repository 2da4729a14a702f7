// Package spice is a small transistor-level circuit simulator standing in
// for the commercial simulator (Cadence Spectre) used by the paper's
// experiments. It implements modified nodal analysis (MNA) with:
//
//   - Newton–Raphson DC operating-point solves, with .nodeset seeding and a
//     gmin-stepping fallback for hard-to-converge circuits;
//   - fixed-step transient analysis with backward-Euler or trapezoidal
//     integration and threshold-crossing delay measurement;
//   - small-signal AC analysis (complex MNA) with magnitude/phase and
//     unity-gain-frequency extraction;
//   - square-law MOSFETs, diodes, R/C/L, independent V/I sources and VCCS;
//   - a SPICE-style netlist parser and runner (ParseNetlist, Netlist.Run).
//
// The simulator is the "expensive sampling engine" of the reproduction: each
// Monte Carlo sampling point of the SRAM experiments is one DC + transient
// run of a read-path netlist whose device parameters are perturbed by
// internal/variation, and each SpiceOpAmp sample is a DC + AC run.
package spice

import ()

// NodeID identifies a circuit node. Ground is the constant Ground (-1) and
// carries no equation.
type NodeID int

// Ground is the reference node.
const Ground NodeID = -1

// Circuit is a netlist under construction.
type Circuit struct {
	nodeNames []string
	nodeIndex map[string]NodeID
	devices   []device
	// branchCount tracks extra MNA branch-current unknowns (one per voltage
	// source and one per inductor).
	branchCount int
	// vsrcBranches[i] is the branch ordinal of the i-th voltage source, for
	// Solution.SourceCurrent.
	vsrcBranches []int
	// nodesets seed the DC Newton iteration (SPICE .nodeset): they bias the
	// solver toward one operating point of a multi-stable circuit without
	// constraining the converged solution.
	nodesets map[NodeID]float64
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{nodeIndex: make(map[string]NodeID)}
}

// Node returns the node with the given name, creating it on first use.
// The name "0" and "gnd" map to Ground.
func (c *Circuit) Node(name string) NodeID {
	if name == "0" || name == "gnd" {
		return Ground
	}
	if id, ok := c.nodeIndex[name]; ok {
		return id
	}
	id := NodeID(len(c.nodeNames))
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = id
	return id
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// NodeName returns the name of a node (for diagnostics).
func (c *Circuit) NodeName(id NodeID) string {
	if id == Ground {
		return "0"
	}
	return c.nodeNames[id]
}

// unknowns returns the size of the MNA system: node voltages plus the
// branch currents of voltage sources and inductors.
func (c *Circuit) unknowns() int { return len(c.nodeNames) + c.branchCount }

// NodeSet seeds the DC Newton iteration with an initial voltage guess for a
// node (the SPICE .nodeset directive). Use it to select among multiple
// stable operating points, e.g. in latches or feedback loops.
func (c *Circuit) NodeSet(n NodeID, v float64) {
	if n == Ground {
		return
	}
	if c.nodesets == nil {
		c.nodesets = make(map[NodeID]float64)
	}
	c.nodesets[n] = v
}

// Waveform describes a time-dependent source value.
type Waveform interface {
	// At returns the source value at time t (t = 0 for DC analyses).
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is the classic SPICE pulse waveform.
type Pulse struct {
	V0, V1                   float64 // initial and pulsed value
	Delay, Rise, Fall, Width float64
	Period                   float64 // 0 means single pulse
}

// At implements Waveform.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V0
	}
	tt := t - p.Delay
	if p.Period > 0 {
		for tt >= p.Period {
			tt -= p.Period
		}
	}
	switch {
	case tt < p.Rise:
		return p.V0 + (p.V1-p.V0)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.V1
	case tt < p.Rise+p.Width+p.Fall:
		return p.V1 + (p.V0-p.V1)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.V0
	}
}

// stampCtx carries the MNA system being assembled for one Newton iteration.
type stampCtx struct {
	a *sysMatrix
	b []float64
	// x is the current solution estimate (node voltages then branch
	// currents); nil during the very first iteration bootstrap.
	x []float64
	// t is the analysis time (0 for DC).
	t float64
	// dt is the timestep (0 for DC; transient companion models use it).
	dt float64
	// xPrev is the converged solution of the previous timestep (nil in DC).
	xPrev []float64
	// nNodes is the node count, used to locate branch-current unknowns.
	nNodes int
	// trap selects trapezoidal companion models for reactive devices
	// (false = backward Euler).
	trap bool
}

// v returns the estimated voltage of a node.
func (ctx *stampCtx) v(n NodeID) float64 {
	if n == Ground || ctx.x == nil {
		return 0
	}
	return ctx.x[n]
}

// vPrev returns the previous-timestep voltage of a node.
func (ctx *stampCtx) vPrev(n NodeID) float64 {
	if n == Ground || ctx.xPrev == nil {
		return 0
	}
	return ctx.xPrev[n]
}

// addA accumulates into the system matrix, skipping ground rows/columns.
func (ctx *stampCtx) addA(i, j NodeID, v float64) {
	if i == Ground || j == Ground {
		return
	}
	ctx.a.add(int(i), int(j), v)
}

// addB accumulates into the right-hand side.
func (ctx *stampCtx) addB(i NodeID, v float64) {
	if i == Ground {
		return
	}
	ctx.b[i] += v
}

// device is anything that can stamp itself into the MNA system.
type device interface {
	stamp(ctx *stampCtx)
}

// sysMatrix is a dense square matrix with an add-accumulate primitive.
// MNA systems in this repository are small (tens of nodes), so dense LU is
// both simple and fast.
type sysMatrix struct {
	n    int
	data []float64
}

func newSysMatrix(n int) *sysMatrix {
	return &sysMatrix{n: n, data: make([]float64, n*n)}
}

func (m *sysMatrix) add(i, j int, v float64) { m.data[i*m.n+j] += v }

func (m *sysMatrix) reset() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// PWL is a piecewise-linear waveform defined by (time, value) breakpoints in
// ascending time order. Before the first point it holds the first value;
// after the last it holds the last.
type PWL struct {
	Times, Values []float64
}

// At implements Waveform by linear interpolation between breakpoints.
func (p PWL) At(t float64) float64 {
	n := len(p.Times)
	if n == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Values[0]
	}
	if t >= p.Times[n-1] {
		return p.Values[n-1]
	}
	// Binary search for the bracketing segment.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - p.Times[lo]) / (p.Times[hi] - p.Times[lo])
	return p.Values[lo] + frac*(p.Values[hi]-p.Values[lo])
}
