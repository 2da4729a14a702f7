package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// CheckpointFormatVersion is the on-disk version of the registry's
// checkpoint wrapper (the embedded solver state carries its own
// core.CheckpointVersion).
const CheckpointFormatVersion = 1

// Checkpoint is the refit companion of a stored model version: the solver's
// serialized fit state plus the training data it was measured on, which is
// everything POST /v1/models/{name}/refine needs to continue the fit when
// new samples arrive. It is stored beside the model envelopes under
// dir/checkpoints/name@vN.json with the same crash-safety guarantees
// (atomic write, quarantine on corrupt load).
type Checkpoint struct {
	// Version is the wrapper format version.
	Version int `json:"version"`
	// Name and ModelVersion identify the registry entry this state belongs
	// to — a checkpoint without a live parent version is unusable.
	Name         string `json:"name"`
	ModelVersion int    `json:"model_version"`
	// Solver, Folds, MaxLambda and Metric reproduce the fit request: a
	// refine re-runs cross-validation under the same configuration. Solver is
	// the engine name of the state (always equal to State.Solver); Fitter is
	// the request's solver token, which can name a variant sharing an engine
	// ("lasso" runs the LAR engine) — refine rebuilds the fitter from it.
	Solver    string `json:"solver"`
	Fitter    string `json:"fitter,omitempty"`
	Folds     int    `json:"folds,omitempty"`
	MaxLambda int    `json:"max_lambda"`
	Metric    string `json:"metric,omitempty"`
	// Points and Values are the training samples the state was fit on,
	// row-aligned with State.Residual. Refine appends new samples to these.
	Points [][]float64 `json:"points"`
	Values []float64   `json:"values"`
	// State is the solver's serialized fit state.
	State *core.FitCheckpoint `json:"state"`
	// CreatedAt is the capture time.
	CreatedAt time.Time `json:"created_at"`
}

// Validate checks the wrapper's internal consistency, including the
// embedded solver state and the row alignment between the stored samples
// and the checkpointed residual.
func (c *Checkpoint) Validate() error {
	if c.Version <= 0 || c.Version > CheckpointFormatVersion {
		return fmt.Errorf("registry: checkpoint format version %d unsupported (max %d)", c.Version, CheckpointFormatVersion)
	}
	if err := ValidateName(c.Name); err != nil {
		return err
	}
	if c.ModelVersion < 1 {
		return fmt.Errorf("registry: checkpoint model version %d invalid", c.ModelVersion)
	}
	if c.State == nil {
		return fmt.Errorf("registry: checkpoint for %s@v%d carries no solver state", c.Name, c.ModelVersion)
	}
	if err := c.State.Validate(); err != nil {
		return err
	}
	if c.Solver != c.State.Solver {
		return fmt.Errorf("registry: checkpoint names solver %q but state is %q", c.Solver, c.State.Solver)
	}
	if len(c.Points) != c.State.K || len(c.Values) != c.State.K {
		return fmt.Errorf("registry: checkpoint has %d points / %d values for K=%d state",
			len(c.Points), len(c.Values), c.State.K)
	}
	if c.MaxLambda < 1 {
		return fmt.Errorf("registry: checkpoint maxLambda %d invalid", c.MaxLambda)
	}
	dim := -1
	for i, p := range c.Points {
		if dim == -1 {
			dim = len(p)
		}
		if len(p) != dim || dim == 0 {
			return fmt.Errorf("registry: checkpoint point %d has %d coordinates, want %d", i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("registry: checkpoint point %d is non-finite", i)
			}
		}
	}
	for i, v := range c.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("registry: checkpoint value %d is non-finite", i)
		}
	}
	return nil
}

// checkpointsDir is the store subdirectory holding fit checkpoints.
func (r *Registry) checkpointsDir() string { return filepath.Join(r.dir, "checkpoints") }

// checkpointKey indexes the in-memory checkpoint cache.
func checkpointKey(name string, version int) string { return entryFile(name, version) }

// PutCheckpoint stores ck as the refit state of model c.Name@c.ModelVersion,
// replacing any previous checkpoint for that version. Persistent registries
// write it atomically under dir/checkpoints/ before it becomes visible.
func (r *Registry) PutCheckpoint(ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("registry: nil checkpoint")
	}
	if err := ck.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir != "" {
		blob, err := json.Marshal(ck)
		if err != nil {
			return fmt.Errorf("registry: encode checkpoint: %w", err)
		}
		if err := os.MkdirAll(r.checkpointsDir(), 0o755); err != nil {
			return fmt.Errorf("registry: create checkpoints dir: %w", err)
		}
		if err := persistAtomic(r.checkpointsDir(), entryFile(ck.Name, ck.ModelVersion), append(blob, '\n')); err != nil {
			return err
		}
	}
	r.cacheCheckpoint(ck)
	return nil
}

// cacheCheckpoint records ck in the in-memory cache. Caller holds r.mu. In
// a registry with a store directory the cache keeps only the newest
// version of each name, because refine only ever continues from the latest
// version and each checkpoint holds its full training set; older versions
// stay on disk and load on demand. In an in-memory registry the cache is
// the store and keeps every version.
func (r *Registry) cacheCheckpoint(ck *Checkpoint) {
	if r.checkpoints == nil {
		r.checkpoints = make(map[string]*Checkpoint)
	}
	if r.dir != "" {
		for key, old := range r.checkpoints {
			if old.Name != ck.Name {
				continue
			}
			if old.ModelVersion > ck.ModelVersion {
				return
			}
			delete(r.checkpoints, key)
		}
	}
	r.checkpoints[checkpointKey(ck.Name, ck.ModelVersion)] = ck
}

// Checkpoint returns the stored refit state of name@version, if any.
// Persistent registries load checkpoint files lazily — they can be large
// (the full training set plus the factor), and most model versions are
// never refined — and quarantine corrupt files into checkpoints/corrupt/
// on first touch instead of failing forever. A version older than the
// newest cached one of its name is read from disk on every call.
func (r *Registry) Checkpoint(name string, version int) (*Checkpoint, bool) {
	key := checkpointKey(name, version)
	r.mu.RLock()
	ck, ok := r.checkpoints[key]
	r.mu.RUnlock()
	if ok {
		return ck, true
	}
	if r.dir == "" || ValidateName(name) != nil || version < 1 {
		return nil, false
	}
	path := filepath.Join(r.checkpointsDir(), entryFile(name, version))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	loaded, err := readCheckpointBlob(data)
	if err == nil && (loaded.Name != name || loaded.ModelVersion != version) {
		err = fmt.Errorf("file claims %s@v%d", loaded.Name, loaded.ModelVersion)
	}
	if err != nil {
		if qErr := quarantine(r.checkpointsDir(), path); qErr == nil {
			r.log.Warn("registry: quarantined damaged checkpoint into checkpoints/corrupt/",
				"path", path, "error", err.Error())
		}
		return nil, false
	}
	r.mu.Lock()
	// A concurrent loader may have won the race; either copy is identical.
	r.cacheCheckpoint(loaded)
	r.mu.Unlock()
	return loaded, true
}

// readCheckpointBlob parses and validates a serialized checkpoint wrapper.
func readCheckpointBlob(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("registry: decode checkpoint: %w", err)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// CheckpointBytes reports the serialized size of the checkpoint stored for
// name@version (0 when none) — the metrics layer's checkpoint size gauge.
func (r *Registry) CheckpointBytes(name string, version int) int {
	ck, ok := r.Checkpoint(name, version)
	if !ok {
		return 0
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		return 0
	}
	return len(blob) + 1
}

// HasCheckpoint reports whether a refit checkpoint is stored for
// name@version, without loading it (checkpoints can be large; the sync
// manifest only needs existence).
func (r *Registry) HasCheckpoint(name string, version int) bool {
	r.mu.RLock()
	_, ok := r.checkpoints[checkpointKey(name, version)]
	r.mu.RUnlock()
	if ok {
		return true
	}
	if r.dir == "" || ValidateName(name) != nil || version < 1 {
		return false
	}
	_, err := os.Stat(filepath.Join(r.checkpointsDir(), entryFile(name, version)))
	return err == nil
}

// CheckpointBlob returns the serialized checkpoint of name@version for
// transfer to a replica, going through the validating load path so a
// damaged file is quarantined rather than propagated.
func (r *Registry) CheckpointBlob(name string, version int) ([]byte, bool) {
	ck, ok := r.Checkpoint(name, version)
	if !ok {
		return nil, false
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		return nil, false
	}
	return append(blob, '\n'), true
}

// PutCheckpointBlob stores a serialized checkpoint pulled from a peer. The
// blob is decoded and fully validated before it is persisted, so a torn or
// hostile sync payload can never land on disk.
func (r *Registry) PutCheckpointBlob(data []byte) error {
	ck, err := readCheckpointBlob(data)
	if err != nil {
		return err
	}
	return r.PutCheckpoint(ck)
}

// dropCheckpoints removes every checkpoint of name from the cache and disk.
// Caller holds r.mu.
func (r *Registry) dropCheckpoints(name string, versions []*Entry) error {
	for _, e := range versions {
		delete(r.checkpoints, checkpointKey(name, e.Version))
		if r.dir != "" {
			path := filepath.Join(r.checkpointsDir(), entryFile(name, e.Version))
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("registry: remove %s: %w", path, err)
			}
		}
	}
	return nil
}
