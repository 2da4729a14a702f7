package spice

import "fmt"

// inductor is a two-terminal inductance handled with an MNA branch current:
// v(a) − v(b) = L·di/dt. It is a short in DC, jωL in AC, and uses a
// backward-Euler companion in transient analysis. Besides general RLC
// circuits, it enables the classic "DC-closed, AC-open" feedback testbench
// used to measure open-loop amplifier gain at a stabilized operating point.
type inductor struct {
	id   string
	a, b NodeID
	l    float64
	ord  int // branch ordinal
}

func (l *inductor) stamp(ctx *stampCtx) {
	bi := NodeID(ctx.nNodes + l.ord)
	// KCL: branch current leaves a, enters b.
	ctx.addA(l.a, bi, 1)
	ctx.addA(l.b, bi, -1)
	// Branch equation (DC: dt = 0 ⇒ v(a) − v(b) = 0, a short).
	// BE:  vd − (L/h)·i = −(L/h)·iPrev
	// TR:  vd − (2L/h)·i = −(2L/h)·iPrev − vdPrev
	ctx.addA(bi, l.a, 1)
	ctx.addA(bi, l.b, -1)
	if ctx.dt > 0 {
		g := l.l / ctx.dt
		iPrev := 0.0
		if ctx.xPrev != nil {
			iPrev = ctx.xPrev[bi]
		}
		if ctx.trap {
			g *= 2
			vdPrev := ctx.vPrev(l.a) - ctx.vPrev(l.b)
			ctx.addA(bi, bi, -g)
			ctx.addB(bi, -g*iPrev-vdPrev)
		} else {
			ctx.addA(bi, bi, -g)
			ctx.addB(bi, -g*iPrev)
		}
	}
}

func (l *inductor) stampAC(ctx *acCtx) {
	bi := NodeID(ctx.nNodes + l.ord)
	ctx.addA(l.a, bi, 1)
	ctx.addA(l.b, bi, -1)
	ctx.addA(bi, l.a, 1)
	ctx.addA(bi, l.b, -1)
	ctx.addA(bi, bi, complex(0, -ctx.omega*l.l))
}

// AddInductor connects an inductance of henries between nodes a and b.
func (c *Circuit) AddInductor(name string, a, b NodeID, henries float64) {
	if henries <= 0 {
		panic(fmt.Sprintf("spice: inductor %s has non-positive inductance %g", name, henries))
	}
	c.devices = append(c.devices, &inductor{id: name, a: a, b: b, l: henries, ord: c.branchCount})
	c.branchCount++
}
