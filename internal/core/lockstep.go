package core

import (
	"context"
	"errors"

	"repro/internal/basis"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// Lockstep cross-validation. A Q-fold cross-validation is Q+1 path fits on
// one design (Sec. IV-C), and every path step is a Gᵀ·x correlation sweep.
// Run one after another, the Q+1 paths pay Q+1 passes over the design, each
// summing every column on one dependent addition chain. Run in lockstep, one
// pass over each column feeds every path's chain at once.
//
// Each path runs its unchanged solver loop on its own goroutine, with its own
// Engine, and meets the others at Correlator.Apply: the path posts its sweep
// to its lane and parks. A coordinator resumes the paths one at a time, in a
// fixed order — fold 0…Q−1, then the final path — each running until it
// posts its next sweep or ends, and then answers every posted sweep with one
// lockstep pass. Only one path runs at a time, so a cross-validation uses the
// same CPU budget as before and its event order is a function of its inputs.
//
// A fold's design is a row view of the parent, so its vectors have the
// training length. Its lane scatters each posted vector into a full-length
// buffer that holds +0 at the held-out rows. Each sum stays one ascending-row
// chain, and a held-out row adds ±0 to it: starting from +0, the chain is
// never −0, and s + (±0) = s, so the result equals the gathered fold's sum
// bit for bit (for a finite design).

// errLaneStopped stops a path whose result can no longer matter: a lower
// fold has failed, or another path panicked.
var errLaneStopped = errors.New("core: cross-validation path stopped")

// cvLane is one path fit of a lockstep cross-validation and its meeting
// point with the coordinator.
type cvLane struct {
	idx   int // position in the coordinator's order
	stage string
	ctx   context.Context
	d     basis.Design
	f     []float64
	eng   *Engine

	// rows and full scatter a fold's posted vectors over the column-major
	// parent: full[rows[i]] = x[i], and +0 at the held-out rows. Both are
	// nil for the final path and when the parent is not column-major.
	rows []int
	full []float64

	// The posted sweep: dst = Gᵀ·x.
	dst, x []float64

	wake chan error // coordinator → path: resume (nil) or stop (the cause)
	park chan bool  // path → coordinator: posted a sweep (true) or ended

	path     *Path
	err      error
	panicked any
}

// newCVLane prepares the idx-th path fit, of f on d, labelled stage. cm is
// the cross-validation's column-major parent, or nil.
func newCVLane(ctx context.Context, idx int, stage string, d basis.Design, f []float64, cm *basis.ColMajor) *cvLane {
	ln := &cvLane{
		idx: idx, stage: stage,
		ctx: WithFitStage(ctx, stage), d: d, f: f,
		eng:  NewEngine(FitWorkersFromContext(ctx)),
		wake: make(chan error),
		park: make(chan bool),
	}
	ln.eng.lane = ln
	if s, ok := d.(*subsetDesign); ok && cm != nil {
		ln.rows, ln.full = s.rows, make([]float64, cm.Rows())
	}
	return ln
}

// sweep posts dst = Gᵀ·x and parks until the coordinator has answered it
// (nil) or stops the path (the cause, which the solver returns).
func (ln *cvLane) sweep(dst, x []float64) error {
	if ln.full != nil {
		for i, r := range ln.rows {
			ln.full[r] = x[i]
		}
		x = ln.full
	}
	ln.dst, ln.x = dst, x
	ln.park <- true
	return <-ln.wake
}

// run is the path's goroutine: it waits for its first resume, fits, and
// reports the end. A panic is handed to the coordinator, which re-raises it
// on the caller's goroutine.
func (ln *cvLane) run(fitter PathFitter, maxLambda int) {
	defer func() {
		if r := recover(); r != nil {
			ln.panicked = r
		}
		ln.park <- false
	}()
	if ln.err = <-ln.wake; ln.err != nil {
		return
	}
	if ln.err = faultinject.FireCtx(ln.ctx, "core."+ln.stage); ln.err != nil {
		return
	}
	ln.path, ln.err = fitPathWithEngine(ln.ctx, ln.eng, fitter, ln.d, ln.f, maxLambda)
}

// runLockstep fits every lane's path in lockstep and returns the index of
// the lowest failing lane with its error, or (len(lanes), nil). Lanes below
// a failing one run to their end, since one of them may fail too; lanes
// above it are stopped. On cancellation every live lane is stopped with the
// context's error. Every lane goroutine has exited when it returns.
func runLockstep(ctx context.Context, fitter PathFitter, lanes []*cvLane, cm *basis.ColMajor, workers, maxLambda int) (int, error) {
	for _, ln := range lanes {
		go ln.run(fitter, maxLambda)
	}
	failed := len(lanes)
	var panicked any
	live := append([]*cvLane(nil), lanes...)
	posted := make([]*cvLane, 0, len(lanes))
	for len(live) > 0 {
		cancel := ctx.Err()
		posted = posted[:0]
		next := live[:0]
		for _, ln := range live {
			var cause error
			switch {
			case cancel != nil:
				cause = cancel
			case panicked != nil || ln.idx > failed:
				cause = errLaneStopped
			}
			ln.wake <- cause
			if <-ln.park {
				posted = append(posted, ln)
				next = append(next, ln)
				continue
			}
			if ln.panicked != nil && panicked == nil {
				panicked = ln.panicked
			}
			if ln.err != nil && ln.idx < failed {
				failed = ln.idx
			}
		}
		live = next
		if len(posted) > 0 {
			sweepLockstep(posted, cm, workers)
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	if failed < len(lanes) {
		return failed, lanes[failed].err
	}
	return failed, nil
}

// sweepLockstep answers every posted sweep. On a column-major parent it is
// one lockstep pass, sharded over column blocks above correlateParallelMin
// as a single path's sweep is. Otherwise each path sweeps through its own
// design's MulTransVec, in path order.
func sweepLockstep(posted []*cvLane, cm *basis.ColMajor, workers int) {
	if cm == nil {
		for _, ln := range posted {
			ln.d.MulTransVec(ln.dst, ln.x)
		}
		return
	}
	dst := make([][]float64, len(posted))
	x := make([][]float64, len(posted))
	for i, ln := range posted {
		dst[i], x[i] = ln.dst, ln.x
	}
	if workers > 1 && cm.Rows()*cm.Cols() >= correlateParallelMin {
		forColumnBlocks(cm.Cols(), workers, func(lo, hi int) {
			mulTransVecsRange(cm, dst, x, lo, hi)
		})
		return
	}
	mulTransVecsRange(cm, dst, x, 0, cm.Cols())
}

// lockstepWidth is the most vectors one pass over a column feeds: as many
// independent addition chains as keep the floating-point adder busy without
// spilling registers.
const lockstepWidth = 5

// mulTransVecsRange computes dst[p][j] = G_jᵀ·x[p] for every vector p and
// column j in [lo, hi). The vectors are split into near-equal groups of at
// most lockstepWidth, and each column is read once per group, each vector on
// its own chain. Every chain sums its column in ascending row order with the
// same c·x[i] products as linalg.Dot, so each result equals
// ColMajor.MulTransVecRange's bit for bit.
func mulTransVecsRange(cm *basis.ColMajor, dst, x [][]float64, lo, hi int) {
	groups := (len(x) + lockstepWidth - 1) / lockstepWidth
	for j := lo; j < hi; j++ {
		col := cm.ColSlice(j)
		for g, p := 0, 0; g < groups; g++ {
			w := (len(x) - p) / (groups - g)
			d, v := dst[p:p+w], x[p:p+w]
			switch w {
			case 1:
				d[0][j] = linalg.Dot(col, v[0])
			case 2:
				d[0][j], d[1][j] = dot2(col, v[0], v[1])
			case 3:
				d[0][j], d[1][j], d[2][j] = dot3(col, v[0], v[1], v[2])
			case 4:
				d[0][j], d[1][j], d[2][j], d[3][j] = dot4(col, v[0], v[1], v[2], v[3])
			default:
				d[0][j], d[1][j], d[2][j], d[3][j], d[4][j] = dot5(col, v[0], v[1], v[2], v[3], v[4])
			}
			p += w
		}
	}
}

func dot2(c, x0, x1 []float64) (s0, s1 float64) {
	x0, x1 = x0[:len(c)], x1[:len(c)]
	for i, v := range c {
		s0 += v * x0[i]
		s1 += v * x1[i]
	}
	return s0, s1
}

func dot3(c, x0, x1, x2 []float64) (s0, s1, s2 float64) {
	x0, x1, x2 = x0[:len(c)], x1[:len(c)], x2[:len(c)]
	for i, v := range c {
		s0 += v * x0[i]
		s1 += v * x1[i]
		s2 += v * x2[i]
	}
	return s0, s1, s2
}

func dot4(c, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(c)], x1[:len(c)], x2[:len(c)], x3[:len(c)]
	for i, v := range c {
		s0 += v * x0[i]
		s1 += v * x1[i]
		s2 += v * x2[i]
		s3 += v * x3[i]
	}
	return s0, s1, s2, s3
}

func dot5(c, x0, x1, x2, x3, x4 []float64) (s0, s1, s2, s3, s4 float64) {
	x0, x1, x2, x3, x4 = x0[:len(c)], x1[:len(c)], x2[:len(c)], x3[:len(c)], x4[:len(c)]
	for i, v := range c {
		s0 += v * x0[i]
		s1 += v * x1[i]
		s2 += v * x2[i]
		s3 += v * x3[i]
		s4 += v * x4[i]
	}
	return s0, s1, s2, s3, s4
}
