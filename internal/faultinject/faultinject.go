// Package faultinject provides gated fault hooks for chaos testing the
// serving path. Production code marks interesting points with Fire("name");
// when nothing is armed that is a single atomic load, so the hooks are free
// to leave compiled in. Tests (and operators, via the rsmd -faults flag or
// the RSMD_FAULTS environment variable) arm individual points to panic,
// stall, or fail, which lets the chaos suite prove that the daemon degrades
// gracefully instead of falling over.
//
// Spec grammar (flag/env form), semicolon-separated:
//
//	point=panic            panic at the point
//	point=error            return a generic injected error
//	point=error:message    return an injected error with the given message
//	point=delay:250ms      sleep at the point (context-aware via FireCtx)
//
// An action may carry a "#N" suffix to fire only N times, e.g.
// "server.fit=panic#1". Points armed without a count fire on every hit until
// Reset.
//
// Well-known points (see their call sites):
//
//	server.fit      start of a fit job's worker execution
//	server.pipeline start of a pipeline job's worker execution
//	server.predict  predict handler, after model lookup
//	registry.write  registry persistence, between temp write and rename
//	journal.append  job-journal record append, before the write+fsync
//	                (error simulates a full disk: submits degrade to 503)
//	core.cv-fold-N  start of cross-validation fold N's path fit
//	core.final      start of cross-validation's final path fit
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error returned by error-armed points; injected
// failures can be recognized with errors.Is.
var ErrInjected = errors.New("injected fault")

// Fault describes what happens when an armed point fires.
type Fault struct {
	// Panic makes the point panic with a recognizable message.
	Panic bool
	// Delay stalls the point. FireCtx returns early (without the fault's
	// error) when the context expires first.
	Delay time.Duration
	// Err is returned by the point when non-nil.
	Err error
	// Count limits how many times the fault fires; 0 means unlimited.
	Count int
}

var (
	mu     sync.Mutex
	points map[string]*armedFault
	active atomic.Int32 // number of armed points; fast-path gate
)

type armedFault struct {
	fault     Fault
	remaining int // decremented per fire when fault.Count > 0
}

// Arm installs a fault at the named point, replacing any previous one.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*armedFault)
	}
	if _, exists := points[point]; !exists {
		active.Add(1)
	}
	points[point] = &armedFault{fault: f, remaining: f.Count}
}

// Disarm removes the fault at the named point.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := points[point]; exists {
		delete(points, point)
		active.Add(-1)
	}
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	active.Store(0)
}

// Enabled reports whether any point is armed.
func Enabled() bool { return active.Load() > 0 }

// Configure arms points from a spec string (see the package comment for the
// grammar). An empty spec is a no-op.
func Configure(spec string) error {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, action, ok := strings.Cut(clause, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultinject: bad clause %q (want point=action)", clause)
		}
		var f Fault
		if base, countStr, ok := strings.Cut(action, "#"); ok {
			n, err := strconv.Atoi(countStr)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad count in %q", clause)
			}
			f.Count = n
			action = base
		}
		kind, arg, _ := strings.Cut(action, ":")
		switch kind {
		case "panic":
			f.Panic = true
		case "error":
			if arg == "" {
				f.Err = ErrInjected
			} else {
				f.Err = fmt.Errorf("%w: %s", ErrInjected, arg)
			}
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultinject: bad delay in %q: %v", clause, err)
			}
			f.Delay = d
		default:
			return fmt.Errorf("faultinject: unknown action %q in %q", kind, clause)
		}
		Arm(point, f)
	}
	return nil
}

// take claims one firing of the point, or returns nil when the point is not
// armed (or its count is exhausted).
func take(point string) *Fault {
	mu.Lock()
	defer mu.Unlock()
	af := points[point]
	if af == nil {
		return nil
	}
	if af.fault.Count > 0 {
		if af.remaining <= 0 {
			return nil
		}
		af.remaining--
	}
	f := af.fault
	return &f
}

// Fire triggers the point with no cancellation: delays sleep in full.
func Fire(point string) error { return FireCtx(context.Background(), point) }

// FireCtx triggers the named point. When the point is unarmed it returns nil
// after one atomic load. An armed point first applies its delay (cut short,
// without error, when ctx expires), then panics or returns its error.
func FireCtx(ctx context.Context, point string) error {
	if active.Load() == 0 {
		return nil
	}
	f := take(point)
	if f == nil {
		return nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil
		}
	}
	if f.Panic {
		panic(fmt.Sprintf("faultinject: injected panic at %q", point))
	}
	return f.Err
}
