package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
)

// testCheckpoint builds a minimal valid checkpoint for name@version.
func testCheckpoint(name string, version int) *Checkpoint {
	return &Checkpoint{
		Version:      CheckpointFormatVersion,
		Name:         name,
		ModelVersion: version,
		Solver:       "OMP",
		Folds:        4,
		MaxLambda:    2,
		Metric:       "gain",
		Points:       [][]float64{{0.5, -1.5}, {2, 0.25}},
		Values:       []float64{1.25, -0.75},
		State: &core.FitCheckpoint{
			Version:   core.CheckpointVersion,
			Solver:    "OMP",
			K:         2,
			M:         3,
			MaxLambda: 2,
			Support:   []int{1},
			Residual:  []float64{0.1, -0.2},
			GTF:       []float64{1},
			CholL:     []float64{1.5},
		},
		CreatedAt: time.Now().UTC(),
	}
}

func TestCheckpointRoundTripInMemory(t *testing.T) {
	r := New()
	ck := testCheckpoint("gain", 1)
	if err := r.PutCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Checkpoint("gain", 1)
	if !ok {
		t.Fatal("checkpoint not found after put")
	}
	if got.Solver != "OMP" || got.State.K != 2 || len(got.Points) != 2 {
		t.Fatalf("checkpoint mangled: %+v", got)
	}
	if _, ok := r.Checkpoint("gain", 2); ok {
		t.Fatal("found checkpoint for version that was never stored")
	}
	if n := r.CheckpointBytes("gain", 1); n <= 0 {
		t.Fatalf("CheckpointBytes = %d, want > 0", n)
	}
	if n := r.CheckpointBytes("gain", 9); n != 0 {
		t.Fatalf("CheckpointBytes for missing version = %d, want 0", n)
	}
}

func TestCheckpointPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PutCheckpoint(testCheckpoint("delay", 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoints", "delay@v3.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r2.Checkpoint("delay", 3)
	if !ok {
		t.Fatal("checkpoint not lazily loaded after reopen")
	}
	if got.Name != "delay" || got.ModelVersion != 3 || got.State.Solver != "OMP" {
		t.Fatalf("reloaded checkpoint mangled: %+v", got)
	}
}

func TestCheckpointQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ckDir, "gain@v1.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"name":"gain","model_ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Checkpoint("gain", 1); ok {
		t.Fatal("corrupt checkpoint was accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still at live path")
	}
	if _, err := os.Stat(filepath.Join(ckDir, "corrupt", "gain@v1.json")); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}

	// A file whose contents claim a different identity is corruption too.
	lying := testCheckpoint("gain", 2)
	if err := r.PutCheckpoint(lying); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(ckDir, "gain@v2.json")
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckDir, "gain@v5.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Checkpoint("gain", 5); ok {
		t.Fatal("checkpoint with mismatched identity was accepted")
	}
}

func TestCheckpointValidateRejects(t *testing.T) {
	r := New()
	cases := map[string]func(*Checkpoint){
		"nil state":      func(c *Checkpoint) { c.State = nil },
		"bad name":       func(c *Checkpoint) { c.Name = "../evil" },
		"bad version":    func(c *Checkpoint) { c.ModelVersion = 0 },
		"solver clash":   func(c *Checkpoint) { c.Solver = "LAR" },
		"row mismatch":   func(c *Checkpoint) { c.Values = c.Values[:1] },
		"ragged points":  func(c *Checkpoint) { c.Points[1] = c.Points[1][:1] },
		"bad maxlambda":  func(c *Checkpoint) { c.MaxLambda = 0 },
		"future format":  func(c *Checkpoint) { c.Version = CheckpointFormatVersion + 1 },
		"corrupt state":  func(c *Checkpoint) { c.State.Residual = c.State.Residual[:1] },
		"nonfinite data": func(c *Checkpoint) { c.Values[0] = c.Values[0] / 0 * 0 },
	}
	for label, mutate := range cases {
		ck := testCheckpoint("gain", 1)
		mutate(ck)
		if err := r.PutCheckpoint(ck); err == nil {
			t.Errorf("%s: PutCheckpoint accepted invalid checkpoint", label)
		}
	}
	if err := r.PutCheckpoint(nil); err == nil {
		t.Error("PutCheckpoint accepted nil")
	}
}

func TestDeleteRemovesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("gain", testEnvelope(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.PutCheckpoint(testCheckpoint("gain", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gain"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Checkpoint("gain", 1); ok {
		t.Fatal("checkpoint survived model deletion")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", "gain@v1.json")); !os.IsNotExist(err) {
		t.Fatal("checkpoint file survived model deletion")
	}
}

func TestCheckpointStaleTempSwept(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(ckDir, "gain@v1.json.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint temp file not swept at open")
	}
}

func TestCheckpointValueAccepted(t *testing.T) {
	// Sanity: the fixture itself must be valid, or every rejection test
	// above passes vacuously.
	if err := testCheckpoint("gain", 1).Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(checkpointKey("gain", 1), "gain@v1") {
		t.Fatalf("unexpected checkpoint key %q", checkpointKey("gain", 1))
	}
}

func TestCheckpointCacheKeepsNewestVersion(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[int][]byte{}
	for v := 1; v <= 5; v++ {
		ck := testCheckpoint("gain", v)
		if err := r.PutCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		if stored[v], err = json.Marshal(ck); err != nil {
			t.Fatal(err)
		}
	}
	cached := func() []int {
		r.mu.RLock()
		defer r.mu.RUnlock()
		var vs []int
		for _, ck := range r.checkpoints {
			if ck.Name == "gain" {
				vs = append(vs, ck.ModelVersion)
			}
		}
		sort.Ints(vs)
		return vs
	}
	if got := cached(); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("cached versions %v, want [5]", got)
	}

	// An older version still loads from disk, intact, without displacing
	// the newest from the cache; so does a late replica copy of one.
	got, ok := r.Checkpoint("gain", 1)
	if !ok {
		t.Fatal("v1 checkpoint not loaded from disk")
	}
	if blob, err := json.Marshal(got); err != nil || string(blob) != string(stored[1]) {
		t.Fatalf("v1 checkpoint changed on reload: %s, want %s (err %v)", blob, stored[1], err)
	}
	if err := r.PutCheckpoint(testCheckpoint("gain", 3)); err != nil {
		t.Fatal(err)
	}
	if got := cached(); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("cached versions %v after loading older ones, want [5]", got)
	}

	// A corrupt older file is still quarantined on load.
	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.WriteFile(filepath.Join(ckDir, "gain@v2.json"), []byte(`{"version":1,"na`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Checkpoint("gain", 2); ok {
		t.Fatal("corrupt v2 checkpoint was accepted")
	}
	if _, err := os.Stat(filepath.Join(ckDir, "corrupt", "gain@v2.json")); err != nil {
		t.Fatalf("corrupt v2 checkpoint not quarantined: %v", err)
	}

	// In memory the cache is the store, so it keeps every version.
	mem := New()
	for v := 1; v <= 5; v++ {
		if err := mem.PutCheckpoint(testCheckpoint("gain", v)); err != nil {
			t.Fatal(err)
		}
	}
	if len(mem.checkpoints) != 5 {
		t.Fatalf("in-memory registry keeps %d checkpoints, want 5", len(mem.checkpoints))
	}
}

// wrapState embeds a serialized solver state in an otherwise valid
// checkpoint wrapper over the given samples, naming the state's solver.
func wrapState(points [][]float64, values []float64, state []byte) []byte {
	var head struct{ Solver string }
	_ = json.Unmarshal(state, &head) // a malformed state keeps the empty name
	p, _ := json.Marshal(points)
	v, _ := json.Marshal(values)
	return []byte(fmt.Sprintf(`{"version":1,"name":"fz","model_version":1,"solver":%q,"max_lambda":1,"points":%s,"values":%s,"state":%s}`,
		head.Solver, p, v, state))
}

// FuzzReadCheckpoint drives the checkpoint parser that the registry runs on
// every lazy load and on every checkpoint a replica pulls from a peer, with
// arbitrary bytes. Each seed is a solver state, valid or damaged, inside a
// valid wrapper. Invariants: never panic, an accepted checkpoint
// re-validates, and it survives a marshal/read round trip.
func FuzzReadCheckpoint(f *testing.F) {
	// A small problem keeps the valid seed short, so the mutator and the
	// minimizer stay fast.
	points := [][]float64{{1, 0, -1}, {0, 2, 1}, {-1, 1, 0}, {2, -1, 1}, {1, 1, -2}, {0, -2, 2}}
	values := make([]float64, len(points))
	for i, p := range points {
		values[i] = 2*p[0] - p[2]
	}
	plan := &core.CheckpointPlan{After: 2}
	fc := core.NewFitContext(core.WithCheckpointPlan(context.Background(), plan))
	if _, err := (&core.OMP{}).FitPathCtx(fc, basis.NewDenseDesign(basis.Linear(3), points), values, 3); err != nil {
		f.Fatal(err)
	}
	state, err := json.Marshal(plan.CK)
	if err != nil {
		f.Fatal(err)
	}
	valid := wrapState(points, values, state)
	if _, err := readCheckpointBlob(valid); err != nil {
		f.Fatalf("the valid seed is rejected: %v", err)
	}
	f.Add(valid)
	f.Add(wrapState(points, values, state[:len(state)/2])) // truncated mid-object

	two, twoValues := [][]float64{{0.5}, {2}}, []float64{1, -1}
	for _, state := range []string{
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2]}`,     // minimal valid
		`{"version":99,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2]}`,    // future version
		`{"version":0,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2]}`,     // zero version
		`{"version":1,"solver":"","k":2,"m":3,"max_lambda":1,"residual":[1,2]}`,        // nameless solver
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1]}`,       // residual/K mismatch
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,1e999]}`, // overflowing residual
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"support":[1,1]}`, // duplicate support
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"support":[7]}`, // support out of range
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"support":[0],"gtf":[1,2]}`, // gtf/support mismatch
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"support":[0,2],"gtf":[1,2],"chol_l":[1,0]}`, // short factor
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"models":[{"m":3,"support":[0],"coef":[1]}]}`, // models without res_norms
		`{"version":1,"solver":"OMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"models":[null],"res_norms":[1]}`, // null model
		`{"version":1,"solver":"CD","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"alpha_idx":[0,0],"alpha_val":[1,2]}`, // duplicate alpha index
		`{"version":1,"solver":"CD","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"alpha_idx":[1],"alpha_val":[1,2]}`, // alpha idx/val mismatch
		`{"version":1,"solver":"CD","k":2,"m":3,"max_lambda":1,"residual":[1,2],"mu":-1}`, // negative grid
		`{"version":1,"solver":"StOMP","k":2,"m":3,"max_lambda":1,"residual":[1,2],` +
			`"stage":-3}`, // negative stage
		`{"version":1,"solver":"OMP","k":-5,"m":3,"max_lambda":1,"residual":[]}`, // negative K
		`{}`,
		``,
		`null`,
		`[1,2,3]`,
	} {
		f.Add(wrapState(two, twoValues, []byte(state)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := readCheckpointBlob(data)
		if err != nil {
			return // rejected input is the expected outcome; it must just not panic
		}
		if err := ck.Validate(); err != nil {
			t.Fatalf("accepted checkpoint fails Validate: %v\ninput: %q", err, data)
		}
		blob, err := json.Marshal(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint fails to re-serialize: %v\ninput: %q", err, data)
		}
		back, err := readCheckpointBlob(blob)
		if err != nil {
			t.Fatalf("round trip fails to parse: %v\nre-serialized: %q", err, blob)
		}
		if back.Name != ck.Name || back.ModelVersion != ck.ModelVersion || len(back.Points) != len(ck.Points) ||
			back.State.Solver != ck.State.Solver || back.State.K != ck.State.K || back.State.M != ck.State.M ||
			len(back.State.Support) != len(ck.State.Support) || len(back.State.Models) != len(ck.State.Models) {
			t.Fatalf("round trip changed the checkpoint: %+v -> %+v", ck, back)
		}
	})
}
