package spice

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVoltageDivider(t *testing.T) {
	c := New()
	in, mid := c.Node("in"), c.Node("mid")
	c.AddVoltageSource("V1", in, Ground, DC(10))
	c.AddResistor("R1", in, mid, 1e3)
	c.AddResistor("R2", mid, Ground, 3e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Voltage(mid); math.Abs(got-7.5) > 1e-6 {
		t.Errorf("divider mid = %gV, want 7.5V", got)
	}
	// Source current: 10V across 4k = 2.5mA flowing out of the source.
	if got := sol.SourceCurrent(0); math.Abs(got+2.5e-3) > 1e-8 {
		t.Errorf("source current = %g, want -2.5mA", got)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddCurrentSource("I1", Ground, n, DC(1e-3))
	c.AddResistor("R1", n, Ground, 2e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Voltage(n); math.Abs(got-2.0) > 1e-6 {
		t.Errorf("V(n) = %g, want 2.0", got)
	}
}

func TestVCCS(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.AddVoltageSource("V1", in, Ground, DC(0.5))
	c.AddVCCS("G1", out, Ground, in, Ground, 2e-3) // gm·v(in) drawn out of node out
	c.AddResistor("RL", out, Ground, 10e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	// Output current 1mA pulled from out through RL: V(out) = −gm·vin·RL = −10V.
	if got := sol.Voltage(out); math.Abs(got+10.0) > 1e-5 {
		t.Errorf("V(out) = %g, want -10", got)
	}
}

func TestDiodeClamp(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.AddVoltageSource("V1", in, Ground, DC(5))
	c.AddResistor("R1", in, out, 1e3)
	c.AddDiode("D1", out, Ground, 1e-14)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	vd := sol.Voltage(out)
	if vd < 0.5 || vd > 0.8 {
		t.Errorf("diode forward drop %gV outside [0.5, 0.8]", vd)
	}
	// KCL consistency: resistor current equals diode current.
	ir := (5 - vd) / 1e3
	id := 1e-14 * (math.Exp(vd/0.025852) - 1)
	if math.Abs(ir-id)/ir > 1e-3 {
		t.Errorf("KCL violated: iR=%g iD=%g", ir, id)
	}
}

func TestNMOSSaturationCurrent(t *testing.T) {
	// NMOS with VGS=1.0, VT=0.4, Beta=200µ, λ=0: ID = β/2·(0.6)² = 36µA.
	c := New()
	vd, vg := c.Node("d"), c.Node("g")
	c.AddVoltageSource("VD", vd, Ground, DC(1.2))
	c.AddVoltageSource("VG", vg, Ground, DC(1.0))
	c.AddMOSFET("M1", vd, vg, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 200e-6})
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	// Drain source current = −ID (current flows into the drain supply).
	id := -sol.SourceCurrent(0)
	want := 0.5 * 200e-6 * 0.36
	if math.Abs(id-want)/want > 1e-3 {
		t.Errorf("ID = %g, want %g", id, want)
	}
}

func TestNMOSTriodeCurrent(t *testing.T) {
	// VGS=1.2, VT=0.4, VDS=0.2 < VOV=0.8 → triode:
	// ID = β(VOV·VDS − VDS²/2) = 200µ·(0.16−0.02) = 28µA.
	c := New()
	vd, vg := c.Node("d"), c.Node("g")
	c.AddVoltageSource("VD", vd, Ground, DC(0.2))
	c.AddVoltageSource("VG", vg, Ground, DC(1.2))
	c.AddMOSFET("M1", vd, vg, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 200e-6})
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	id := -sol.SourceCurrent(0)
	want := 200e-6 * (0.8*0.2 - 0.02)
	if math.Abs(id-want)/want > 1e-3 {
		t.Errorf("ID = %g, want %g", id, want)
	}
}

func TestCMOSInverterVTC(t *testing.T) {
	// A balanced CMOS inverter: output high for low input, low for high
	// input, and near VDD/2 at the switching threshold.
	build := func(vin float64) (*Circuit, NodeID) {
		c := New()
		vdd, in, out := c.Node("vdd"), c.Node("in"), c.Node("out")
		c.AddVoltageSource("VDD", vdd, Ground, DC(1.2))
		c.AddVoltageSource("VIN", in, Ground, DC(vin))
		c.AddMOSFET("MP", out, in, vdd, MOSParams{Type: PMOS, VT: 0.4, Beta: 250e-6, Lambda: 0.05})
		c.AddMOSFET("MN", out, in, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 250e-6, Lambda: 0.05})
		// Light load to give the output a DC path in cutoff corners.
		c.AddResistor("RL", out, Ground, 1e9)
		return c, out
	}
	c, out := build(0)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage(out); v < 1.1 {
		t.Errorf("V(out) = %g for low input, want ≈1.2", v)
	}
	c, out = build(1.2)
	sol, err = c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage(out); v > 0.1 {
		t.Errorf("V(out) = %g for high input, want ≈0", v)
	}
	c, out = build(0.6)
	sol, err = c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage(out); math.Abs(v-0.6) > 0.15 {
		t.Errorf("V(out) = %g at threshold, want ≈0.6 for balanced inverter", v)
	}
}

func TestRCTransientStepResponse(t *testing.T) {
	// R=1k, C=1µ: τ=1ms. Step 0→1V at t=0 (via pulse with tiny rise).
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.AddVoltageSource("V1", in, Ground, Pulse{V0: 0, V1: 1, Delay: 0, Rise: 1e-9, Fall: 1e-9, Width: 1})
	c.AddResistor("R1", in, out, 1e3)
	c.AddCapacitor("C1", out, Ground, 1e-6)
	tr, err := c.Transient(5e-3, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Compare with v(t) = 1 − e^{−t/τ} at a few probe times. Backward Euler
	// with 1000 steps per τ is accurate to ~0.1%.
	for _, probe := range []float64{0.5e-3, 1e-3, 2e-3, 4e-3} {
		idx := int(probe / 5e-6)
		got := tr.At(out, idx)
		want := 1 - math.Exp(-tr.Times[idx]/1e-3)
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("v(%.1fms) = %g, want %g", probe*1e3, got, want)
		}
	}
	// 63.2% crossing at ≈ τ.
	tc, err := tr.CrossingTime(out, 1-math.Exp(-1), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tc-1e-3) > 2e-5 {
		t.Errorf("τ crossing at %g, want 1ms", tc)
	}
}

func TestInverterPropagationDelay(t *testing.T) {
	// CMOS inverter driving a load cap: the output must fall after the
	// input rises, with a measurable positive delay.
	c := New()
	vdd, in, out := c.Node("vdd"), c.Node("in"), c.Node("out")
	c.AddVoltageSource("VDD", vdd, Ground, DC(1.2))
	c.AddVoltageSource("VIN", in, Ground, Pulse{V0: 0, V1: 1.2, Delay: 1e-10, Rise: 2e-11, Fall: 2e-11, Width: 1e-8})
	c.AddMOSFET("MP", out, in, vdd, MOSParams{Type: PMOS, VT: 0.4, Beta: 250e-6, Lambda: 0.05})
	c.AddMOSFET("MN", out, in, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 500e-6, Lambda: 0.05})
	c.AddCapacitor("CL", out, Ground, 10e-15)
	tr, err := c.Transient(2e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	tIn, err := tr.CrossingTime(in, 0.6, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	tOut, err := tr.CrossingTime(out, 0.6, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	delay := tOut - tIn
	if delay <= 0 || delay > 1e-9 {
		t.Errorf("propagation delay %g s outside plausible (0, 1ns]", delay)
	}
	// Output starts high and ends low.
	if v0 := tr.At(out, 0); v0 < 1.1 {
		t.Errorf("initial output %g, want ≈1.2", v0)
	}
	last := tr.At(out, len(tr.Times)-1)
	if last > 0.1 {
		t.Errorf("final output %g, want ≈0", last)
	}
}

func TestMOSFETSourceDrainSwap(t *testing.T) {
	// Pass transistor conducting "backwards" (drain below source) must still
	// conduct: tie gate high, drive former drain low.
	c := New()
	g, a, b := c.Node("g"), c.Node("a"), c.Node("b")
	c.AddVoltageSource("VG", g, Ground, DC(1.2))
	c.AddVoltageSource("VA", a, Ground, DC(0))
	c.AddCurrentSource("IB", Ground, b, DC(10e-6)) // push 10µA into b
	c.AddMOSFET("M1", a, g, b, MOSParams{Type: NMOS, VT: 0.4, Beta: 500e-6})
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	// The transistor must sink the 10µA with a small vb.
	if vb := sol.Voltage(b); vb < 0 || vb > 0.2 {
		t.Errorf("pass-gate V(b) = %g, want small positive", vb)
	}
}

func TestPulseWaveform(t *testing.T) {
	p := Pulse{V0: 0, V1: 1, Delay: 1, Rise: 1, Fall: 1, Width: 2, Period: 10}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0}, {1.5, 0.5}, {2, 1}, {3.5, 1}, {4.5, 0.5}, {5, 0},
		{11.5, 0.5}, // periodic repeat
	}
	for _, tc := range cases {
		if got := p.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Pulse.At(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestNodeNaming(t *testing.T) {
	c := New()
	if c.Node("0") != Ground || c.Node("gnd") != Ground {
		t.Error("ground aliases must map to Ground")
	}
	a := c.Node("a")
	if c.Node("a") != a {
		t.Error("repeated Node lookups must return the same id")
	}
	if c.NodeName(a) != "a" || c.NodeName(Ground) != "0" {
		t.Error("NodeName mismatch")
	}
	if c.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", c.NumNodes())
	}
}

func TestEmptyCircuitErrors(t *testing.T) {
	if _, err := New().DC(); err == nil {
		t.Error("empty circuit DC must error")
	}
}

func TestTransientInvalidWindow(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddCurrentSource("I", Ground, n, DC(1e-3))
	c.AddResistor("R", n, Ground, 1e3)
	if _, err := c.Transient(0, 1e-6); err == nil {
		t.Error("stop=0 must error")
	}
	if _, err := c.Transient(1e-3, 2e-3); err == nil {
		t.Error("step > stop must error")
	}
}

func TestCrossingTimeNoCross(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddCurrentSource("I", Ground, n, DC(1e-3))
	c.AddResistor("R", n, Ground, 1e3)
	tr, err := c.Transient(1e-6, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CrossingTime(n, 100, true, 0); err == nil {
		t.Error("impossible crossing must error")
	}
}

func TestDevicePanics(t *testing.T) {
	c := New()
	a := c.Node("a")
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"resistor", func() { c.AddResistor("R", a, Ground, 0) }},
		{"capacitor", func() { c.AddCapacitor("C", a, Ground, -1) }},
		{"mosfet", func() { c.AddMOSFET("M", a, a, Ground, MOSParams{Beta: 0}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestACCurrentSourceStimulus(t *testing.T) {
	// AC current of 1 A into a 50 Ω resistor reads 50 V of transfer
	// impedance at the node.
	c := New()
	n := c.Node("n")
	c.AddCurrentSource("I1", Ground, n, DC(0))
	c.AddResistor("R1", n, Ground, 50)
	if err := c.SetACMagnitude("I1", 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.AC([]float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	// The global gmin leak shifts the impedance by ~R²·gmin.
	if got := res.Mag(n, 0); math.Abs(got-50) > 1e-6 {
		t.Errorf("|Z| = %g, want 50", got)
	}
	// Ground queries are exactly zero.
	if res.Mag(Ground, 0) != 0 || res.Voltage(Ground, 0) != 0 {
		t.Error("ground AC voltage must be 0")
	}
}

func TestTranResultVoltageWaveform(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddCurrentSource("I", Ground, n, DC(1e-3))
	c.AddResistor("R", n, Ground, 1e3)
	tr, err := c.Transient(1e-6, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	// 1 mA into 1 kΩ holds the node at 1 V at every time point.
	for i := range tr.Times {
		if v := tr.At(n, i); math.Abs(v-1) > 1e-9 {
			t.Fatalf("v(n) at step %d = %g, want 1", i, v)
		}
		if tr.At(Ground, i) != 0 {
			t.Fatal("ground waveform must be 0")
		}
	}
}

func TestSolutionVoltageGround(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddVoltageSource("V", n, Ground, DC(1))
	c.AddResistor("R", n, Ground, 1e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Voltage(Ground) != 0 {
		t.Error("ground DC voltage must be 0")
	}
}

func TestOPReport(t *testing.T) {
	c := New()
	vd, vg, out := c.Node("d"), c.Node("g"), c.Node("out")
	c.AddVoltageSource("VD", vd, Ground, DC(1.2))
	c.AddVoltageSource("VG", vg, Ground, DC(1.0))
	c.AddMOSFET("M1", vd, vg, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 200e-6})
	c.AddResistor("R1", vd, out, 1e3)
	c.AddDiode("D1", out, Ground, 1e-14)
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	ops := c.OPReport(sol)
	if len(ops) != 2 {
		t.Fatalf("got %d entries, want 2", len(ops))
	}
	// Sorted by name: D1 then M1.
	if ops[0].Name != "D1" || ops[1].Name != "M1" {
		t.Fatalf("order %v", []string{ops[0].Name, ops[1].Name})
	}
	m := ops[1]
	if m.Region != "saturation" {
		t.Errorf("M1 region %q, want saturation", m.Region)
	}
	want := 0.5 * 200e-6 * 0.36
	if math.Abs(m.ID-want)/want > 1e-3 {
		t.Errorf("M1 id %g, want %g", m.ID, want)
	}
	if m.Gm <= 0 {
		t.Error("M1 gm must be positive")
	}
	d := ops[0]
	if d.Region != "on" || d.ID <= 0 {
		t.Errorf("D1 %+v, want conducting", d)
	}
	var sb strings.Builder
	WriteOPReport(&sb, ops)
	if !strings.Contains(sb.String(), "M1") || !strings.Contains(sb.String(), "saturation") {
		t.Errorf("report rendering:\n%s", sb.String())
	}
}

func TestOPReportCutoff(t *testing.T) {
	c := New()
	vd := c.Node("d")
	c.AddVoltageSource("VD", vd, Ground, DC(1.2))
	c.AddMOSFET("M1", vd, Ground, Ground, MOSParams{Type: NMOS, VT: 0.4, Beta: 200e-6})
	sol, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	ops := c.OPReport(sol)
	if ops[0].Region != "cutoff" || ops[0].ID != 0 {
		t.Errorf("grounded-gate NMOS: %+v, want cutoff", ops[0])
	}
}

// TestResistiveNetworkMaximumPrinciple is a property test: in any random
// resistive network driven by DC sources, every node voltage must lie within
// [min source voltage, max source voltage] — the discrete maximum principle
// for the Laplace-like MNA system.
func TestResistiveNetworkMaximumPrinciple(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New()
		nNodes := 3 + r.Intn(8)
		nodes := make([]NodeID, nNodes)
		for i := range nodes {
			nodes[i] = c.Node(fmt.Sprintf("n%d", i))
		}
		// Spanning chain keeps everything connected; extra random edges.
		prev := Ground
		for i, n := range nodes {
			c.AddResistor(fmt.Sprintf("Rc%d", i), prev, n, 100+5000*r.Float64())
			prev = n
		}
		for e := 0; e < nNodes; e++ {
			a := nodes[r.Intn(nNodes)]
			b := Ground
			if r.Intn(2) == 0 {
				b = nodes[r.Intn(nNodes)]
			}
			if a == b {
				continue
			}
			c.AddResistor(fmt.Sprintf("Re%d", e), a, b, 100+5000*r.Float64())
		}
		// One or two DC sources with random values, on distinct nodes (two
		// ideal sources on one node would be contradictory).
		vmin, vmax := math.Inf(1), math.Inf(-1)
		for s := 0; s < 1+r.Intn(2); s++ {
			v := -5 + 10*r.Float64()
			c.AddVoltageSource(fmt.Sprintf("V%d", s), nodes[s], Ground, DC(v))
			if v < vmin {
				vmin = v
			}
			if v > vmax {
				vmax = v
			}
		}
		// Ground is effectively a 0V boundary too.
		if vmin > 0 {
			vmin = 0
		}
		if vmax < 0 {
			vmax = 0
		}
		sol, err := c.DC()
		if err != nil {
			return false
		}
		const eps = 1e-9
		for _, n := range nodes {
			v := sol.Voltage(n)
			if v < vmin-eps || v > vmax+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMOSGateCapacitanceMillerDelay(t *testing.T) {
	// An inverter with Cgd suffers Miller feedthrough: its propagation delay
	// must exceed the zero-cap version driven by the same resistive source.
	delay := func(cgd float64) float64 {
		c := New()
		vdd, src, in, out := c.Node("vdd"), c.Node("src"), c.Node("in"), c.Node("out")
		c.AddVoltageSource("VDD", vdd, Ground, DC(1.2))
		c.AddVoltageSource("VIN", src, Ground, Pulse{V0: 0, V1: 1.2, Delay: 1e-10, Rise: 2e-11, Fall: 2e-11, Width: 1e-8})
		c.AddResistor("RS", src, in, 5e3) // finite driver impedance
		p := MOSParams{VT: 0.4, Beta: 250e-6, Lambda: 0.05, Cgd: cgd}
		pn := p
		pn.Type = NMOS
		pn.Beta = 500e-6
		pp := p
		pp.Type = PMOS
		c.AddMOSFET("MP", out, in, vdd, pp)
		c.AddMOSFET("MN", out, in, Ground, pn)
		c.AddCapacitor("CL", out, Ground, 5e-15)
		tr, err := c.Transient(3e-9, 2e-12)
		if err != nil {
			t.Fatal(err)
		}
		tIn, err := tr.CrossingTime(src, 0.6, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		tOut, err := tr.CrossingTime(out, 0.6, false, tIn)
		if err != nil {
			t.Fatal(err)
		}
		return tOut - tIn
	}
	d0 := delay(0)
	d1 := delay(20e-15)
	if d1 <= d0 {
		t.Errorf("Miller cap did not slow the inverter: %g vs %g", d1, d0)
	}
}
