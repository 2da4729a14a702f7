package circuit

import (
	"fmt"
	"math"

	"repro/internal/spice"
	"repro/internal/variation"
)

// SRAMConfig sizes the SRAM read-path testbench of the paper's Fig. 5.
type SRAMConfig struct {
	// Rows, Cols define the cell array. The accessed cell is modeled with
	// dedicated read-path devices; every other cell contributes bitline
	// leakage (same column) or nothing (other columns), which is the source
	// of the profoundly sparse delay model of Fig. 6.
	Rows, Cols int
}

// Dim returns the variation-space dimensionality the config produces:
// 58 fixed factors (globals, spatial grid, path devices, wires) plus two
// local VTH factors per non-accessed cell.
func (c SRAMConfig) Dim() int { return 58 + 2*(c.Rows*c.Cols-1) + 2 }

// PaperSRAMConfig reproduces the paper's scale: 21 310 independent random
// variables (138×77 cells).
func PaperSRAMConfig() SRAMConfig { return SRAMConfig{Rows: 138, Cols: 77} }

// DefaultSRAMConfig is the scaled-down default used by the benchmarks:
// 25×20 cells, 1 058 factors.
func DefaultSRAMConfig() SRAMConfig { return SRAMConfig{Rows: 25, Cols: 20} }

// SRAM is the read-path testbench: cell array column with distributed
// bitline RC, a replica column for self-timing, and a differential sense
// amplifier, simulated at transistor level by internal/spice. The metric is
// the read delay from the word-line input edge to the sense-amp output.
type SRAM struct {
	cfg   SRAMConfig
	space *variation.Space

	// Path device indices in the variation space.
	wlP, wlN, acc, pd, pre, rpre, racc, rpd int
	sa1, sa2, saM1, saM2, tail              int
	wires                                   []int
	// cellDev[i] holds the two device indices (access, pulldown) of the
	// i-th non-accessed cell in the accessed column (i < Rows-1) and the
	// other columns after that.
	cellDev [][2]int

	// Nominal electrical values.
	vdd, vt0 float64
}

// NewSRAM builds the testbench and its variation space.
func NewSRAM(cfg SRAMConfig) (*SRAM, error) {
	if cfg.Rows < 2 || cfg.Cols < 1 {
		return nil, fmt.Errorf("circuit: SRAM needs at least 2 rows and 1 column, got %dx%d", cfg.Rows, cfg.Cols)
	}
	s := &SRAM{cfg: cfg, vdd: 1.0, vt0: 0.3}
	var devs []variation.Device
	addT := func(name string, w, l, x, y float64) int {
		devs = append(devs, variation.Device{
			Name: name, W: w, L: l, X: x, Y: y,
			Kinds: []variation.ParamKind{variation.VTH, variation.Beta},
		})
		return len(devs) - 1
	}
	// 13 read-path transistors.
	s.wlP = addT("MWLP", 4, 0.06, 5, 50)
	s.wlN = addT("MWLN", 2, 0.06, 5, 52)
	s.acc = addT("MACC", 0.2, 0.06, 20, 50)
	s.pd = addT("MPD", 0.3, 0.06, 20, 52)
	s.pre = addT("MPRE", 1, 0.06, 20, 10)
	s.rpre = addT("MRPRE", 1, 0.06, 60, 10)
	s.racc = addT("MRACC", 0.15, 0.06, 60, 50)
	s.rpd = addT("MRPD", 0.2, 0.06, 60, 52)
	s.sa1 = addT("MSA1", 2, 0.1, 40, 80)
	s.sa2 = addT("MSA2", 2, 0.1, 42, 80)
	s.saM1 = addT("MSAM1", 1, 0.1, 40, 84)
	s.saM2 = addT("MSAM2", 1, 0.1, 42, 84)
	s.tail = addT("MTAIL", 2, 0.2, 41, 76)
	// 6 interconnect segments: 3 on the main bitline, 2 on the replica, 1 on
	// the word line.
	for i := 0; i < 6; i++ {
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("WSEG%d", i), W: 0.1, L: 20,
			X: 20 + 8*float64(i), Y: 30,
			Kinds: []variation.ParamKind{variation.RWire, variation.CWire},
		})
		s.wires = append(s.wires, len(devs)-1)
	}
	// Non-accessed cells: two VTH-only devices each (access and pulldown).
	// Cell 0 of the accessed column is the read cell (already modeled above),
	// so it is skipped here.
	total := cfg.Rows*cfg.Cols - 1
	for i := 0; i < total; i++ {
		a := len(devs)
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("CELL%d/acc", i), W: 0.2, L: 0.06,
			X: float64(20 + (i % cfg.Cols)), Y: float64(50 + i/cfg.Cols),
			Kinds: []variation.ParamKind{variation.VTH},
		})
		devs = append(devs, variation.Device{
			Name: fmt.Sprintf("CELL%d/pd", i), W: 0.3, L: 0.06,
			X: float64(20 + (i % cfg.Cols)), Y: float64(50 + i/cfg.Cols),
			Kinds: []variation.ParamKind{variation.VTH},
		})
		s.cellDev = append(s.cellDev, [2]int{a, a + 1})
	}

	spec := variation.Spec{
		Devices: devs,
		InterDieSigma: map[variation.ParamKind]float64{
			variation.VTH:   0.015,
			variation.Beta:  0.03,
			variation.RWire: 0.06,
			variation.CWire: 0.05,
		},
		PelgromA: map[variation.ParamKind]float64{
			variation.VTH:   0.0035,
			variation.Beta:  0.008,
			variation.RWire: 0.02,
			variation.CWire: 0.015,
		},
		SpatialSigma: map[variation.ParamKind]float64{
			variation.VTH:  0.004,
			variation.Beta: 0.006,
		},
		GridNX: 3, GridNY: 3,
		DieW: 120, DieH: 120,
	}
	space, err := variation.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("circuit: SRAM variation space: %w", err)
	}
	if space.Dim() != cfg.Dim() {
		return nil, fmt.Errorf("circuit: SRAM space has %d factors, config promises %d", space.Dim(), cfg.Dim())
	}
	s.space = space
	return s, nil
}

// Dim implements Simulator.
func (s *SRAM) Dim() int { return s.space.Dim() }

// Metrics implements Simulator.
func (s *SRAM) Metrics() []string { return []string{"read_delay"} }

// Space exposes the variation space for diagnostics.
func (s *SRAM) Space() *variation.Space { return s.space }

// mos builds the effective square-law parameters of path device d.
func (s *SRAM) mos(d int, typ spice.MOSType, beta0 float64, dy []float64) spice.MOSParams {
	return spice.MOSParams{
		Type:   typ,
		VT:     s.vt0 + s.space.Delta(d, variation.VTH, dy),
		Beta:   beta0 * (1 + s.space.Delta(d, variation.Beta, dy)),
		Lambda: 0.08,
	}
}

// Evaluate implements Simulator: it assembles the perturbed read-path
// netlist, runs a transient analysis and measures the WL→Out delay.
func (s *SRAM) Evaluate(dy []float64) ([]float64, error) {
	if err := checkDim(len(dy), s.space.Dim()); err != nil {
		return nil, err
	}
	const (
		tPrechargeOff = 0.2e-9
		tWL           = 0.3e-9
		tStop         = 4.0e-9
		tStep         = 5e-12
	)
	c := spice.New()
	vdd := c.Node("vdd")
	wlin := c.Node("wlin")
	pcb := c.Node("pcb")
	vb := c.Node("vb")
	wl, wlg := c.Node("wl"), c.Node("wlg")
	bl, bl2, bl3 := c.Node("bl"), c.Node("bl2"), c.Node("bl3")
	cn := c.Node("cn")
	rbl, rbl2 := c.Node("rbl"), c.Node("rbl2")
	rcn := c.Node("rcn")
	sgm, out, tail := c.Node("sgm"), c.Node("out"), c.Node("tail")

	c.AddVoltageSource("VDD", vdd, spice.Ground, spice.DC(s.vdd))
	// Word-line input: low, rising at tWL. The driver inverts, so the input
	// starts high and falls.
	c.AddVoltageSource("VWL", wlin, spice.Ground, spice.Pulse{
		V0: s.vdd, V1: 0, Delay: tWL, Rise: 20e-12, Fall: 20e-12, Width: 1,
	})
	// Precharge gate: low (on) then high (off) at tPrechargeOff.
	c.AddVoltageSource("VPC", pcb, spice.Ground, spice.Pulse{
		V0: 0, V1: s.vdd, Delay: tPrechargeOff, Rise: 20e-12, Fall: 20e-12, Width: 1,
	})
	c.AddVoltageSource("VB", vb, spice.Ground, spice.DC(0.55))

	// Word-line driver (inverter) and routing segment.
	c.AddMOSFET("MWLP", wl, wlin, vdd, s.mos(s.wlP, spice.PMOS, 1.5e-3, dy))
	c.AddMOSFET("MWLN", wl, wlin, spice.Ground, s.mos(s.wlN, spice.NMOS, 3e-3, dy))
	rw := 150 * (1 + s.space.Delta(s.wires[5], variation.RWire, dy))
	cw := 8e-15 * (1 + s.space.Delta(s.wires[5], variation.CWire, dy))
	c.AddResistor("RWL", wl, wlg, rw)
	c.AddCapacitor("CWL", wlg, spice.Ground, cw)

	// Main bitline: precharge + 3 RC segments, access cell at the far end.
	c.AddMOSFET("MPRE", bl, pcb, vdd, s.mos(s.pre, spice.PMOS, 1e-3, dy))
	perTapCap := 0.8e-15 * float64(s.cfg.Rows) / 3
	taps := []spice.NodeID{bl, bl2, bl3}
	for i := 0; i < 3; i++ {
		r := 200 * (1 + s.space.Delta(s.wires[i], variation.RWire, dy))
		cc := perTapCap * (1 + s.space.Delta(s.wires[i], variation.CWire, dy))
		if i < 2 {
			c.AddResistor(fmt.Sprintf("RBL%d", i), taps[i], taps[i+1], r)
		}
		c.AddCapacitor(fmt.Sprintf("CBL%d", i), taps[i], spice.Ground, cc)
	}
	c.AddMOSFET("MACC", bl3, wlg, cn, s.mos(s.acc, spice.NMOS, 300e-6, dy))
	c.AddMOSFET("MPD", cn, vdd, spice.Ground, s.mos(s.pd, spice.NMOS, 500e-6, dy))

	// Bitline leakage from the non-accessed cells of the accessed column.
	// Sub-threshold conduction through the series access device, modulated
	// by each cell's local VTH deltas — tiny but nonzero influence.
	const (
		i0       = 50e-12 // nominal per-cell leakage
		subSlope = 0.035  // n·vT
	)
	leak := 0.0
	for i := 0; i < s.cfg.Rows-1 && i < len(s.cellDev); i++ {
		dAcc := s.space.Delta(s.cellDev[i][0], variation.VTH, dy)
		dPd := s.space.Delta(s.cellDev[i][1], variation.VTH, dy)
		leak += i0 * math.Exp(-(dAcc+0.5*dPd)/subSlope)
	}
	if leak > 0 {
		c.AddCurrentSource("ILEAK", bl, spice.Ground, spice.DC(leak))
	}

	// Replica column: weaker cell with a keeper pull-up, so the replica
	// bitline settles at a mid-level reference voltage (a divider between
	// the keeper and the replica cell) instead of discharging fully. The
	// main bitline crossing this reference fires the sense amplifier.
	c.AddMOSFET("MRPRE", rbl, pcb, vdd, s.mos(s.rpre, spice.PMOS, 1e-3, dy))
	rKeep := 20e3 * (1 + s.space.Delta(s.wires[4], variation.RWire, dy))
	c.AddResistor("RKEEP", vdd, rbl, rKeep)
	rSeg := 250 * (1 + s.space.Delta(s.wires[3], variation.RWire, dy))
	c.AddResistor("RRBL", rbl, rbl2, rSeg)
	for i := 0; i < 2; i++ {
		w := s.wires[3+i]
		cc := 1.3 * perTapCap * (1 + s.space.Delta(w, variation.CWire, dy))
		tap := rbl
		if i == 1 {
			tap = rbl2
		}
		c.AddCapacitor(fmt.Sprintf("CRBL%d", i), tap, spice.Ground, cc)
	}
	c.AddMOSFET("MRACC", rbl2, wlg, rcn, s.mos(s.racc, spice.NMOS, 150e-6, dy))
	c.AddMOSFET("MRPD", rcn, vdd, spice.Ground, s.mos(s.rpd, spice.NMOS, 250e-6, dy))

	// Sense amplifier: NMOS diff pair (bl vs replica) with PMOS mirror load.
	// Out rises once the main bitline falls below the replica reference.
	c.AddMOSFET("MSA1", sgm, rbl, tail, s.mos(s.sa1, spice.NMOS, 400e-6, dy))
	c.AddMOSFET("MSA2", out, bl, tail, s.mos(s.sa2, spice.NMOS, 400e-6, dy))
	c.AddMOSFET("MSAM1", sgm, sgm, vdd, s.mos(s.saM1, spice.PMOS, 400e-6, dy))
	c.AddMOSFET("MSAM2", out, sgm, vdd, s.mos(s.saM2, spice.PMOS, 400e-6, dy))
	c.AddMOSFET("MTAIL", tail, vb, spice.Ground, s.mos(s.tail, spice.NMOS, 400e-6, dy))
	c.AddCapacitor("COUT", out, spice.Ground, 5e-15)

	tr, err := c.Transient(tStop, tStep)
	if err != nil {
		return nil, fmt.Errorf("circuit: SRAM transient: %w", err)
	}
	tIn, err := tr.CrossingTime(wlin, s.vdd/2, false, 0)
	if err != nil {
		return nil, fmt.Errorf("circuit: SRAM WL edge: %w", err)
	}
	tOut, err := tr.CrossingTime(out, 0.8*s.vdd, true, tIn)
	if err != nil {
		return nil, fmt.Errorf("circuit: SRAM sense output never fired: %w", err)
	}
	return []float64{tOut - tIn}, nil
}
