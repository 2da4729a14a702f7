package trace

import (
	"context"
	"testing"
)

// TestSpanSetInterleavedStages: interleaved stage events — the shape of a
// lockstep cross-validation — give one span per label, each left at its
// last event's attrs, all ended by Close; a label seen after Close opens a
// new span.
func TestSpanSetInterleavedStages(t *testing.T) {
	st := keepAll(4)
	ctx, root := st.StartRoot(context.Background(), "fit")
	ss := NewSpanSet(ctx)
	for iter := 1; iter <= 3; iter++ {
		for _, stage := range []string{"cv-fold-0", "cv-fold-1", "final"} {
			ss.Observe(stage, Int("iter", iter))
		}
	}
	ss.Close()
	ss.Observe("final", Int("iter", 9))
	ss.Close()
	root.End()

	d, ok := st.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	count := make(map[string]int)
	for _, r := range d.Spans {
		if r.Name == "fit" {
			continue
		}
		count[r.Name]++
		if r.Status == StatusUnfinished {
			t.Errorf("span %s was left open for the trace seal to end", r.Name)
		}
	}
	if count["cv-fold-0"] != 1 || count["cv-fold-1"] != 1 || count["final"] != 2 {
		t.Fatalf("spans per label %v, want one per fold and two finals", count)
	}
	for _, r := range d.Spans {
		if r.Name == "cv-fold-1" && r.Attrs["iter"] != 3 {
			t.Errorf("cv-fold-1 iter attr %v, want the last event's 3", r.Attrs["iter"])
		}
	}
}
