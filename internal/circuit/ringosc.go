package circuit

import (
	"fmt"

	"repro/internal/spice"
	"repro/internal/variation"
)

// RingOscillator is a ring of CMOS inverters whose oscillation period is the
// performance metric, simulated at transistor level. It serves as the
// *negative control* for the paper's sparsity assumption: unlike the OpAmp
// offset (dominated by one device pair) or the SRAM delay (dominated by the
// read path), the RO period depends on *every* stage roughly equally, so its
// coefficient vector is dense at the scale of the circuit. The experiments
// use it to show where sparse recovery's advantage shrinks — and that
// cross-validation correctly selects a large λ in that regime.
type RingOscillator struct {
	stages int
	space  *variation.Space
	// devP[i], devN[i] are the variation-space indices of stage i's PMOS
	// and NMOS.
	devP, devN []int
	vdd, vt0   float64
}

// NewRingOscillator builds an oscillator with the given odd number of
// stages (≥ 3). The variation space has 4 global factors plus 2 local
// factors (VTH, Beta) per transistor: dim = 4 + 4·stages.
func NewRingOscillator(stages int) (*RingOscillator, error) {
	if stages < 3 || stages%2 == 0 {
		return nil, fmt.Errorf("circuit: ring oscillator needs an odd stage count ≥ 3, got %d", stages)
	}
	ro := &RingOscillator{stages: stages, vdd: 1.0, vt0: 0.3}
	var devs []variation.Device
	for i := 0; i < stages; i++ {
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("MP%d", i), W: 0.4, L: 0.06,
			X: float64(5 * i), Y: 10,
			Kinds: []variation.ParamKind{variation.VTH, variation.Beta},
		})
		ro.devP = append(ro.devP, len(devs)-1)
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("MN%d", i), W: 0.2, L: 0.06,
			X: float64(5 * i), Y: 12,
			Kinds: []variation.ParamKind{variation.VTH, variation.Beta},
		})
		ro.devN = append(ro.devN, len(devs)-1)
	}
	spec := variation.Spec{
		Devices: devs,
		InterDieSigma: map[variation.ParamKind]float64{
			variation.VTH:   0.015,
			variation.Beta:  0.03,
			variation.RWire: 0.05,
			variation.CWire: 0.04,
		},
		PelgromA: map[variation.ParamKind]float64{
			variation.VTH:  0.004,
			variation.Beta: 0.01,
		},
	}
	space, err := variation.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("circuit: ring oscillator variation space: %w", err)
	}
	ro.space = space
	return ro, nil
}

// Dim implements Simulator.
func (ro *RingOscillator) Dim() int { return ro.space.Dim() }

// Metrics implements Simulator.
func (ro *RingOscillator) Metrics() []string { return []string{"period"} }

// Evaluate implements Simulator: a transient simulation of the free-running
// ring, measuring the oscillation period between two rising crossings of
// the first node.
func (ro *RingOscillator) Evaluate(dy []float64) ([]float64, error) {
	if err := checkDim(len(dy), ro.space.Dim()); err != nil {
		return nil, err
	}
	c := spice.New()
	vdd := c.Node("vdd")
	c.AddVoltageSource("VDD", vdd, spice.Ground, spice.DC(ro.vdd))
	nodes := make([]spice.NodeID, ro.stages)
	for i := range nodes {
		nodes[i] = c.Node(fmt.Sprintf("n%d", i))
	}
	mos := func(d int, typ spice.MOSType, beta0 float64) spice.MOSParams {
		return spice.MOSParams{
			Type:   typ,
			VT:     ro.vt0 + ro.space.Delta(d, variation.VTH, dy),
			Beta:   beta0 * (1 + ro.space.Delta(d, variation.Beta, dy)),
			Lambda: 0.1,
		}
	}
	for i := 0; i < ro.stages; i++ {
		in := nodes[(i+ro.stages-1)%ro.stages]
		out := nodes[i]
		c.AddMOSFET(fmt.Sprintf("MP%d", i), out, in, vdd, mos(ro.devP[i], spice.PMOS, 200e-6))
		c.AddMOSFET(fmt.Sprintf("MN%d", i), out, in, spice.Ground, mos(ro.devN[i], spice.NMOS, 200e-6))
		c.AddCapacitor(fmt.Sprintf("CL%d", i), out, spice.Ground, 20e-15)
	}
	// Break the DC symmetry so the ring starts oscillating: seed alternating
	// rail voltages. The DC solve settles to the metastable midpoint anyway
	// (all inverters at threshold); a kick-start current on node 0 pushes
	// the transient off it.
	for i, n := range nodes {
		if i%2 == 0 {
			c.NodeSet(n, ro.vdd)
		} else {
			c.NodeSet(n, 0)
		}
	}
	c.AddCurrentSource("IKICK", spice.Ground, nodes[0],
		spice.Pulse{V0: 0, V1: 50e-6, Delay: 50e-12, Rise: 50e-12, Fall: 50e-12, Width: 500e-12})

	const (
		tStop = 30e-9
		tStep = 10e-12
	)
	tr, err := c.Transient(tStop, tStep)
	if err != nil {
		return nil, fmt.Errorf("circuit: ring oscillator transient: %w", err)
	}
	mid := ro.vdd / 2
	// Skip the start-up transient, then measure between consecutive rising
	// crossings.
	t1, err := tr.CrossingTime(nodes[0], mid, true, tStop/3)
	if err != nil {
		return nil, fmt.Errorf("circuit: ring oscillator never settled: %w", err)
	}
	t2, err := tr.CrossingTime(nodes[0], mid, true, t1+10*tStep)
	if err != nil {
		return nil, fmt.Errorf("circuit: ring oscillator second crossing: %w", err)
	}
	return []float64{t2 - t1}, nil
}

var _ Simulator = (*RingOscillator)(nil)
