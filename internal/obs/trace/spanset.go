package trace

import (
	"context"
	"sync"
)

// SpanSet turns a stream of stage labels — the shape of core.FitEvent
// telemetry — into sibling child spans under one parent, one span per
// label. The stages may interleave: a lockstep cross-validation reports its
// fold paths and its final path step by step, so every label's span stays
// open from its first event until Close. So one SpanSet serves one
// cross-validation at a time: a caller that runs several in sequence Closes
// it between them, and the next one's labels open new spans. Safe for
// concurrent use and safe on a context without a span (every method
// no-ops).
type SpanSet struct {
	mu    sync.Mutex
	ctx   context.Context
	open  map[string]*Span
	order []*Span // open spans in first-sighting order, for Close
}

// NewSpanSet builds a SpanSet parented at ctx's current span.
func NewSpanSet(ctx context.Context) *SpanSet {
	return &SpanSet{ctx: ctx}
}

// Observe records one stage observation: the first sighting of a label
// opens its span, and every sighting updates that span's attrs. Attrs
// overwrite by key, so passing the latest iteration counters on every event
// leaves the final values on the span.
func (ss *SpanSet) Observe(stage string, attrs ...Attr) {
	if ss == nil || stage == "" || SpanFromContext(ss.ctx) == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sp := ss.open[stage]
	if sp == nil {
		if ss.open == nil {
			ss.open = make(map[string]*Span)
		}
		_, sp = Start(ss.ctx, stage)
		ss.open[stage] = sp
		ss.order = append(ss.order, sp)
	}
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
}

// Close ends every open stage span, in the order they opened. A label
// observed after Close opens a new span.
func (ss *SpanSet) Close() {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, sp := range ss.order {
		sp.End()
	}
	ss.open, ss.order = nil, nil
}
