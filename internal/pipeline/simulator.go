package pipeline

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/spice"
	"repro/internal/variation"
)

// cardVar binds one varying device of the spec to its netlist card.
type cardVar struct {
	card  int // index into nl.Cards
	kinds []variation.ParamKind
}

// Simulator adapts a parsed netlist plus a variation space to the
// circuit.Simulator interface the sampling engines drive: each Evaluate
// rebuilds the deck with the factor vector's parameter deltas applied
// (VT additive, Beta/R/C relative — the SpiceOpAmp idiom) and extracts the
// spec's measure from a fresh analysis. Evaluations are independent, so
// one Simulator is safe for the sampling worker pool.
type Simulator struct {
	nl      *spice.Netlist
	space   *variation.Space
	vars    []cardVar // aligned with the space's device indices
	measure Measure
	an      spice.Analysis
	freqIdx int // .ac sweep index for ac_gain_db

	// ctx gates fault injection and lets an armed delay at pipeline.sim be
	// cut short by job cancellation; Background outside a pipeline run.
	ctx context.Context
}

// NewSimulator validates the spec against the netlist — device names,
// parameter kinds per card type, the measured node, the required analysis —
// and builds the variation space. The spec must already pass Validate.
func NewSimulator(nl *spice.Netlist, spec *Spec) (*Simulator, error) {
	vs, err := spec.variationSpec()
	if err != nil {
		return nil, err
	}
	space, err := variation.Build(vs)
	if err != nil {
		return nil, err
	}
	s := &Simulator{nl: nl, space: space, measure: spec.Measure, ctx: context.Background()}

	for _, dv := range spec.Variation.Devices {
		ci := -1
		for i := range nl.Cards {
			if strings.EqualFold(nl.Cards[i].Name, dv.Device) {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("pipeline: variation device %q not in netlist", dv.Device)
		}
		cv := cardVar{card: ci}
		for _, p := range dv.Params {
			k, err := variation.ParseKind(p)
			if err != nil {
				return nil, err
			}
			if err := kindAllowed(nl.Cards[ci].Kind, k); err != nil {
				return nil, fmt.Errorf("pipeline: device %s: %w", dv.Device, err)
			}
			cv.kinds = append(cv.kinds, k)
		}
		s.vars = append(s.vars, cv)
	}

	if !nodeExists(nl.Circuit, spec.Measure.Node) {
		return nil, fmt.Errorf("pipeline: measure node %q not in netlist", spec.Measure.Node)
	}
	kind := analysisKind(spec.Measure.Kind)
	found := false
	for _, an := range nl.Analyses {
		if an.Kind == kind {
			s.an = an
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("pipeline: measure %s needs a .%s analysis in the netlist", spec.Measure.Kind, kind)
	}
	if spec.Measure.Kind == MeasureACGainDB {
		best, bestDist := -1, math.Inf(1)
		for i, f := range s.an.Freqs {
			if d := math.Abs(math.Log(f / spec.Measure.Freq)); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("pipeline: .ac analysis has no sweep points")
		}
		s.freqIdx = best
	}
	return s, nil
}

// kindAllowed checks a parameter kind against the card type it perturbs.
func kindAllowed(card byte, k variation.ParamKind) error {
	ok := false
	switch card {
	case 'R':
		ok = k == variation.RWire
	case 'C':
		ok = k == variation.CWire
	case 'M':
		ok = k == variation.VTH || k == variation.Beta
	}
	if !ok {
		return fmt.Errorf("parameter %s does not apply to a %c card", k, card)
	}
	return nil
}

// analysisKind maps a measure kind to the netlist analysis it requires.
func analysisKind(measure string) string {
	switch measure {
	case MeasureTranDelay:
		return "tran"
	case MeasureACGainDB, MeasureACUnityGain:
		return "ac"
	default:
		return "dc"
	}
}

// nodeExists reports whether the circuit already has the named node
// (without Node's create-on-demand side effect).
func nodeExists(c *spice.Circuit, name string) bool {
	if name == "0" || name == "gnd" {
		return true
	}
	for i := 0; i < c.NumNodes(); i++ {
		if c.NodeName(spice.NodeID(i)) == name {
			return true
		}
	}
	return false
}

// Dim implements circuit.Simulator.
func (s *Simulator) Dim() int { return s.space.Dim() }

// Metrics implements circuit.Simulator.
func (s *Simulator) Metrics() []string { return []string{s.measure.String()} }

// Evaluate implements circuit.Simulator: rebuild the deck with the factor
// vector applied and extract the measure.
func (s *Simulator) Evaluate(dy []float64) ([]float64, error) {
	// Chaos hook: injected errors fail the sampling stage, injected delays
	// stall it against the job deadline; an armed delay respects s.ctx so
	// cancellation is prompt.
	if err := faultinject.FireCtx(s.ctx, "pipeline.sim"); err != nil {
		return nil, err
	}
	c, err := s.nl.BuildCircuit(func(i int, card *spice.DeviceCard) {
		for vi := range s.vars {
			if s.vars[vi].card != i {
				continue
			}
			for _, k := range s.vars[vi].kinds {
				d := s.space.Delta(vi, k, dy)
				switch k {
				case variation.VTH:
					card.MOS.VT += d
				case variation.Beta:
					card.MOS.Beta *= 1 + d
				case variation.RWire, variation.CWire:
					card.Value *= 1 + d
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	v, err := s.extract(c)
	if err != nil {
		return nil, err
	}
	return []float64{v}, nil
}

// extract runs the measure's analysis on a built circuit.
func (s *Simulator) extract(c *spice.Circuit) (float64, error) {
	node := c.Node(s.measure.Node)
	switch s.measure.Kind {
	case MeasureTranDelay:
		tr, err := c.TransientMethod(s.an.Stop, s.an.Step, s.an.Method)
		if err != nil {
			return 0, err
		}
		return tr.CrossingTime(node, s.measure.Threshold, s.measure.Edge == "rise", s.measure.After)
	case MeasureACGainDB, MeasureACUnityGain:
		if err := c.SetACMagnitude(s.an.ACSource, s.an.ACMag); err != nil {
			return 0, err
		}
		res, err := c.AC(s.an.Freqs)
		if err != nil {
			return 0, err
		}
		if s.measure.Kind == MeasureACUnityGain {
			return res.UnityGainFreq(node)
		}
		return res.MagDB(node, s.freqIdx), nil
	case MeasureDCVoltage:
		sol, err := c.DC()
		if err != nil {
			return 0, err
		}
		return sol.Voltage(node), nil
	}
	return 0, fmt.Errorf("pipeline: unknown measure kind %q", s.measure.Kind)
}
