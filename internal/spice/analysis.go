package spice

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Solution holds the result of a DC operating-point analysis.
type Solution struct {
	circ *Circuit
	x    []float64
}

// Voltage returns the solved voltage at a node (0 for Ground).
func (s *Solution) Voltage(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return s.x[n]
}

// SourceCurrent returns the branch current of the i-th voltage source, in
// the order the sources were added.
func (s *Solution) SourceCurrent(i int) float64 {
	return s.x[len(s.circ.nodeNames)+s.circ.vsrcBranches[i]]
}

const (
	maxNewton = 300
	absTol    = 1e-9
	relTol    = 1e-6
	// nodeGmin is a global leak from every node to ground that keeps the
	// MNA matrix nonsingular when devices are cut off.
	nodeGmin = 1e-12
	// maxStep caps the Newton voltage update, which damps the exponential
	// devices into convergence.
	maxStep = 0.5
)

// solveNewton iterates MNA Newton–Raphson at a fixed time point. x0 is the
// initial estimate (may be nil); xPrev is the previous transient solution
// (nil for DC); dt is the timestep (0 for DC).
func (c *Circuit) solveNewton(kind string, x0, xPrev []float64, t, dt float64) ([]float64, error) {
	return c.solveNewtonGmin(kind, x0, xPrev, t, dt, nodeGmin)
}

// solveNewtonGmin is solveNewton with an explicit node-to-ground leak, the
// knob used by gmin stepping.
func (c *Circuit) solveNewtonGmin(kind string, x0, xPrev []float64, t, dt, gmin float64) ([]float64, error) {
	return c.solveNewtonFull(kind, x0, xPrev, t, dt, gmin, false)
}

// solveNewtonFull is the complete Newton driver: gmin leak and integrator
// selection are explicit.
func (c *Circuit) solveNewtonFull(kind string, x0, xPrev []float64, t, dt, gmin float64, trap bool) ([]float64, error) {
	n := c.unknowns()
	if n == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	} else {
		for node, v := range c.nodesets {
			x[node] = v
		}
	}
	a := newSysMatrix(n)
	b := make([]float64, n)
	worst := math.Inf(1)
	worstIdx := -1
	for iter := 0; iter < maxNewton; iter++ {
		a.reset()
		for i := range b {
			b[i] = 0
		}
		ctx := &stampCtx{a: a, b: b, x: x, t: t, dt: dt, xPrev: xPrev, nNodes: len(c.nodeNames), trap: trap}
		for _, dev := range c.devices {
			dev.stamp(ctx)
		}
		for i := 0; i < len(c.nodeNames); i++ {
			a.add(i, i, gmin)
		}
		mat := &linalg.Matrix{Rows: n, Cols: n, Data: a.data}
		lu, err := linalg.LUFactor(mat)
		if err != nil {
			return nil, fmt.Errorf("spice: %s analysis matrix is singular (floating node?): %w", kind, err)
		}
		xNew, err := lu.Solve(b)
		if err != nil {
			return nil, fmt.Errorf("spice: %s analysis solve: %w", kind, err)
		}
		// Damped update and convergence check. The step limit anneals after
		// 50 iterations: a constant clamp can ping-pong between two
		// linearizations of a square-law kink (a ±maxStep limit cycle),
		// whereas a shrinking limit forces the iterates together.
		lim := maxStep
		if iter > 50 {
			lim = maxStep * math.Pow(0.5, float64((iter-50)/25+1))
			// Floor the annealed limit: the iterate must still be able to
			// cover rail-to-rail distances within the iteration budget.
			if lim < 0.02 {
				lim = 0.02
			}
		}
		worst = 0
		worstIdx = -1
		for i := range x {
			dx := xNew[i] - x[i]
			if i < len(c.nodeNames) {
				// Node voltages are step-limited; branch currents are not.
				if dx > lim {
					dx = lim
				} else if dx < -lim {
					dx = -lim
				}
			}
			if ad := math.Abs(dx); ad > worst {
				worst = ad
				worstIdx = i
			}
			x[i] += dx
		}
		if worst < absTol+relTol*linalg.NormInf(x) {
			return x, nil
		}
	}
	unknown := "?"
	if worstIdx >= 0 {
		if worstIdx < len(c.nodeNames) {
			unknown = "V(" + c.nodeNames[worstIdx] + ")"
		} else {
			unknown = fmt.Sprintf("branch %d", worstIdx-len(c.nodeNames))
		}
	}
	return nil, fmt.Errorf("spice: %s analysis did not converge after %d iterations (worst update %.3g at %s)", kind, maxNewton, worst, unknown)
}

// solveDC finds the operating point, falling back to gmin stepping when the
// plain Newton iteration fails to converge: the system is first solved with
// a heavy artificial leak from every node to ground (which convexifies the
// problem), and the leak is then relaxed decade by decade with warm starts.
func (c *Circuit) solveDC() ([]float64, error) {
	x, err := c.solveNewton("DC", nil, nil, 0, 0)
	if err == nil {
		return x, nil
	}
	var warm []float64
	for g := 1e-3; g >= nodeGmin; g /= 10 {
		step, err2 := c.solveNewtonGmin("DC(gmin)", warm, nil, 0, 0, g)
		if err2 != nil {
			return nil, err // report the original failure
		}
		warm = step
	}
	return c.solveNewtonGmin("DC(gmin)", warm, nil, 0, 0, nodeGmin)
}

// DC computes the operating point with all waveforms evaluated at t = 0.
func (c *Circuit) DC() (*Solution, error) {
	x, err := c.solveDC()
	if err != nil {
		return nil, err
	}
	return &Solution{circ: c, x: x}, nil
}

// TranResult holds a fixed-step transient waveform set.
type TranResult struct {
	circ *Circuit
	// Times are the solved time points, starting at 0.
	Times []float64
	// states[i] is the full MNA solution at Times[i].
	states [][]float64
}

// At returns the voltage of node n at time index i.
func (tr *TranResult) At(n NodeID, i int) float64 {
	if n == Ground {
		return 0
	}
	return tr.states[i][n]
}

// CrossingTime returns the first time after tStart at which node n crosses
// threshold in the given direction, linearly interpolated between steps.
func (tr *TranResult) CrossingTime(n NodeID, threshold float64, rising bool, tStart float64) (float64, error) {
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] < tStart {
			continue
		}
		v0, v1 := tr.At(n, i-1), tr.At(n, i)
		var crossed bool
		if rising {
			crossed = v0 < threshold && v1 >= threshold
		} else {
			crossed = v0 > threshold && v1 <= threshold
		}
		if crossed {
			frac := (threshold - v0) / (v1 - v0)
			return tr.Times[i-1] + frac*(tr.Times[i]-tr.Times[i-1]), nil
		}
	}
	dir := "rising"
	if !rising {
		dir = "falling"
	}
	return 0, fmt.Errorf("spice: node %s never crosses %.3g V (%s) after t=%.3g",
		tr.circ.NodeName(n), threshold, dir, tStart)
}

// Transient runs a backward-Euler transient analysis from the DC operating
// point at t = 0 up to stop with a fixed step. Use TransientMethod to select
// trapezoidal integration instead.
func (c *Circuit) Transient(stop, step float64) (*TranResult, error) {
	return c.TransientMethod(stop, step, BackwardEuler)
}
