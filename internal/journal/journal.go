// Package journal is rsmd's durable job journal: an append-only,
// fsync-on-record JSONL write-ahead log of job lifecycle events. Every
// submitted / started / stage-completed / terminal transition of an async
// fit, pipeline or refine job is one JSON line in the current segment file,
// synced to disk before the caller proceeds, so a crash never loses an
// acknowledged job.
//
// On open the journal replays every segment in order and hands the caller
// a Replay: the merged per-job state (live jobs to re-enqueue, terminal
// jobs to keep queryable) plus the idempotency-key dedup map. The merge is
// idempotent and terminal-first-wins — duplicate records only fill gaps,
// and nothing ever resurrects a terminal job — which makes crash-mid-
// compaction safe and lets fuzzing hammer the parser with garbage.
//
// Segments rotate by compaction: when the current segment outgrows
// Options.MaxSegmentBytes, the in-memory state is snapshotted into a fresh
// segment (temp file → fsync → rename, the registry's crash-safe idiom)
// and older segments are deleted. Terminal jobs beyond Options.MaxTerminal
// are pruned oldest-first at that point, bounding disk and replay cost.
//
// A torn write at the tail of the newest segment (power loss mid-append)
// is detected at open and truncated away; corrupt lines in the middle of a
// segment are skipped and counted. Append failures (disk full — also
// reachable through the "journal.append" faultinject point) flip the
// journal into a degraded state the serving layer surfaces; the first
// successful append clears it.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Record types, in lifecycle order.
const (
	// TypeSubmitted carries the job's identity and full request payload.
	TypeSubmitted = "submitted"
	// TypeStarted marks a worker pickup; Attempt counts total starts, so a
	// replayed job's prior crash count is max(Attempt) across records.
	TypeStarted = "started"
	// TypeStage marks one completed pipeline stage (progress breadcrumb).
	TypeStage = "stage"
	// TypeTerminal is the final transition; State is done | failed |
	// canceled | timed_out. First terminal record wins, forever.
	TypeTerminal = "terminal"
)

// Record is one journal line. Only Type and Job are universal; the other
// fields are populated per type (see the type constants).
type Record struct {
	Type      string          `json:"type"`
	Time      time.Time       `json:"time,omitempty"`
	JobID     string          `json:"job"`
	Kind      string          `json:"kind,omitempty"`       // submitted: fit | pipeline | refine
	RequestID string          `json:"request_id,omitempty"` // submitted: trace ID
	IdemKey   string          `json:"idem_key,omitempty"`   // submitted: Idempotency-Key
	Payload   json.RawMessage `json:"payload,omitempty"`    // submitted: the request body
	Attempt   int             `json:"attempt,omitempty"`    // started: cumulative start count
	Stage     string          `json:"stage,omitempty"`      // stage: pipeline stage name
	State     string          `json:"state,omitempty"`      // terminal: final job state
	Error     string          `json:"error,omitempty"`      // terminal: failure message
}

// valid reports whether a parsed line is a usable record; anything else is
// counted as corrupt and skipped.
func (r *Record) valid() bool {
	if r.JobID == "" {
		return false
	}
	switch r.Type {
	case TypeSubmitted, TypeStarted, TypeStage, TypeTerminal:
		return true
	}
	return false
}

// JobState is the merged replay state of one job.
type JobState struct {
	ID        string
	Kind      string
	RequestID string
	IdemKey   string
	// Payload is the submitted request body, kept while the job may still
	// run: a terminal job never runs again and a snapshot drops its
	// payload, so it is released at the terminal record.
	Payload json.RawMessage
	// State is the journaled lifecycle state: "pending" until a started
	// record, "running" until terminal, then the terminal state verbatim.
	State    string
	Terminal bool
	Error    string
	// Attempts is the number of times a worker started this job. A live job
	// with Attempts > 0 was running at crash time.
	Attempts  int
	LastStage string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Replay is the journal's merged state: what Open recovered from disk, and
// what the journal keeps current in memory for compaction. The maps are
// owned by the journal once Open returns — callers must consume them
// before issuing the first Append.
type Replay struct {
	// Jobs maps job ID → merged state; Order preserves first-seen order
	// (IDs pruned by the terminal-retention bound stay in Order but are
	// absent from Jobs).
	Jobs  map[string]*JobState
	Order []string
	// IdemKeys maps Idempotency-Key → job ID for dedup across restarts.
	IdemKeys map[string]string
	// MaxJobNum is the highest numeric suffix seen across job-%06d IDs, so
	// the queue's ID sequence survives restarts without collisions.
	MaxJobNum int
	// Records counts successfully applied records; BadLines counts corrupt
	// lines skipped mid-segment; TruncatedBytes counts torn-tail bytes
	// dropped from the newest segment.
	Records        int
	BadLines       int
	TruncatedBytes int64

	// terminalOrder tracks terminal job IDs oldest-first for pruning;
	// pruned remembers retired IDs so late duplicates cannot resurrect them.
	terminalOrder []string
	pruned        map[string]struct{}
}

func newReplay() *Replay {
	return &Replay{
		Jobs:     make(map[string]*JobState),
		IdemKeys: make(map[string]string),
		pruned:   make(map[string]struct{}),
	}
}

// Live returns the replayed jobs that were pending or running at crash
// time, in submission order.
func (rp *Replay) Live() []*JobState {
	var live []*JobState
	for _, id := range rp.Order {
		if js, ok := rp.Jobs[id]; ok && !js.Terminal {
			live = append(live, js)
		}
	}
	return live
}

// apply merges one record into the replay state. It is the single merge
// rule for both disk replay and live appends, and must stay idempotent:
// duplicates only fill missing fields, terminal is first-wins, and no
// record ever takes a job out of a terminal state.
func (rp *Replay) apply(rec *Record, maxTerminal int) {
	js := rp.Jobs[rec.JobID]
	if js == nil {
		if _, retired := rp.pruned[rec.JobID]; retired {
			// The job was already retired by the terminal-retention bound;
			// late duplicates of its records must not resurrect it.
			return
		}
		js = &JobState{ID: rec.JobID, State: "pending", Submitted: rec.Time}
		rp.Jobs[rec.JobID] = js
		rp.Order = append(rp.Order, rec.JobID)
	}
	rp.Records++
	if n, ok := jobNum(rec.JobID); ok && n > rp.MaxJobNum {
		rp.MaxJobNum = n
	}
	switch rec.Type {
	case TypeSubmitted:
		if js.Kind == "" {
			js.Kind = rec.Kind
		}
		if js.RequestID == "" {
			js.RequestID = rec.RequestID
		}
		if js.IdemKey == "" {
			js.IdemKey = rec.IdemKey
		}
		if len(js.Payload) == 0 && !js.Terminal {
			js.Payload = rec.Payload
		}
		if js.Submitted.IsZero() {
			js.Submitted = rec.Time
		}
		if rec.IdemKey != "" {
			if _, taken := rp.IdemKeys[rec.IdemKey]; !taken {
				rp.IdemKeys[rec.IdemKey] = rec.JobID
			}
		}
	case TypeStarted:
		if !js.Terminal {
			js.State = "running"
		}
		if rec.Attempt > js.Attempts {
			js.Attempts = rec.Attempt
		}
		if js.Started.IsZero() {
			js.Started = rec.Time
		}
	case TypeStage:
		if !js.Terminal {
			js.LastStage = rec.Stage
		}
	case TypeTerminal:
		if js.Terminal {
			return // first terminal record wins
		}
		js.Terminal = true
		js.Payload = nil
		js.State = rec.State
		js.Error = rec.Error
		js.Finished = rec.Time
		rp.terminalOrder = append(rp.terminalOrder, rec.JobID)
		rp.pruneTerminal(maxTerminal)
	}
}

// pruneTerminal drops the oldest retained terminal jobs beyond the bound,
// freeing their idempotency keys with them.
func (rp *Replay) pruneTerminal(maxTerminal int) {
	if maxTerminal <= 0 {
		return
	}
	for len(rp.terminalOrder) > maxTerminal {
		id := rp.terminalOrder[0]
		rp.terminalOrder = rp.terminalOrder[1:]
		if js, ok := rp.Jobs[id]; ok {
			if js.IdemKey != "" && rp.IdemKeys[js.IdemKey] == id {
				delete(rp.IdemKeys, js.IdemKey)
			}
			delete(rp.Jobs, id)
		}
		rp.pruned[id] = struct{}{}
	}
}

// jobNum parses the numeric suffix of a job-%06d ID.
func jobNum(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Options tunes the journal; zero values select the documented defaults.
type Options struct {
	// MaxSegmentBytes triggers compaction when the current segment outgrows
	// it (default 4 MiB).
	MaxSegmentBytes int64
	// MaxTerminal bounds how many terminal jobs the journal retains for
	// post-restart queryability and idempotency dedup (default 512); older
	// ones are pruned at compaction time.
	MaxTerminal int
	// Logger receives replay/compaction diagnostics (default: discard).
	Logger *slog.Logger
	// OnAppend observes every append attempt with its fsync-inclusive
	// latency and outcome — the rsmd_journal_* metrics hook. Called with
	// the journal lock held; it must not call back into the journal.
	OnAppend func(d time.Duration, err error)
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxTerminal <= 0 {
		o.MaxTerminal = 512
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Journal is the open write-ahead log. All methods are safe for concurrent
// use; Append serializes writers so records land whole.
type Journal struct {
	opts Options
	dir  string

	mu     sync.Mutex
	f      *os.File
	seg    int   // current segment number
	size   int64 // current segment size
	state  *Replay
	closed bool

	degraded atomic.Bool
}

const segPrefix = "seg-"

func segName(n int) string { return fmt.Sprintf("%s%06d.jsonl", segPrefix, n) }

// Open opens (or creates) the journal in dir, replays every segment and
// returns the merged state. The returned Replay shares storage with the
// journal's in-memory state: consume it before the first Append.
func Open(dir string, opts Options) (*Journal, *Replay, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts, dir: dir, state: newReplay()}
	for i, n := range segs {
		if err := j.replaySegment(n, i == len(segs)-1); err != nil {
			return nil, nil, err
		}
	}
	if len(segs) == 0 {
		j.seg = 1
	} else {
		j.seg = segs[len(segs)-1]
	}
	path := filepath.Join(dir, segName(j.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f, j.size = f, st.Size()
	if j.state.BadLines > 0 || j.state.TruncatedBytes > 0 {
		opts.Logger.Warn("journal: recovered past corruption",
			"bad_lines", j.state.BadLines, "truncated_bytes", j.state.TruncatedBytes)
	}
	return j, j.state, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".jsonl")
		n, err := strconv.Atoi(num)
		if err != nil || n < 1 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// replaySegment merges one segment into the journal state. On the final
// (active) segment, a corrupt tail — a torn write from the crash — is
// truncated off so subsequent appends extend a clean file; corrupt lines
// with good records after them are skipped and counted but left on disk.
func (j *Journal) replaySegment(n int, final bool) error {
	path := filepath.Join(j.dir, segName(n))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	lastGoodEnd := 0 // offset just past the last successfully applied line
	for off := 0; off < len(data); {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // unterminated tail: torn write
		}
		line := data[off:nl]
		off = nl + 1
		if len(line) == 0 {
			lastGoodEnd = off
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || !rec.valid() {
			j.state.BadLines++
			continue
		}
		j.state.apply(&rec, j.opts.MaxTerminal)
		lastGoodEnd = off
	}
	if final && lastGoodEnd < len(data) {
		j.state.TruncatedBytes += int64(len(data) - lastGoodEnd)
		if err := os.Truncate(path, int64(lastGoodEnd)); err != nil {
			return fmt.Errorf("journal: truncate corrupt tail: %w", err)
		}
		j.opts.Logger.Warn("journal: truncated corrupt segment tail",
			"segment", segName(n), "bytes", len(data)-lastGoodEnd)
		if err := syncDir(j.dir); err != nil {
			return err
		}
	}
	return nil
}

// Append durably logs one record: marshal, write, fsync — in that order,
// under the journal lock, before returning. A zero Time is stamped with
// the current time. On failure the journal flips degraded (and tries to
// trim the partial write so the segment stays parseable); the next
// successful append clears it.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	start := time.Now()
	err := j.appendLocked(&rec)
	if j.opts.OnAppend != nil {
		j.opts.OnAppend(time.Since(start), err)
	}
	if err != nil {
		j.degraded.Store(true)
		return err
	}
	j.degraded.Store(false)
	j.state.apply(&rec, j.opts.MaxTerminal)
	if j.size > j.opts.MaxSegmentBytes {
		if cerr := j.compactLocked(); cerr != nil {
			// Compaction is an optimization: appends continue on the old
			// segment, so log and move on.
			j.opts.Logger.Warn("journal: compaction failed", "error", cerr)
		}
	}
	return nil
}

func (j *Journal) appendLocked(rec *Record) error {
	if err := faultinject.Fire("journal.append"); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	line = append(line, '\n')
	n, err := j.f.Write(line)
	if err != nil {
		// A short write (disk full) leaves a torn line; trim it so later
		// appends extend a parseable file rather than burying garbage
		// mid-segment. (The file is opened O_APPEND, so the next write lands
		// at the truncated end.)
		if n > 0 {
			if terr := j.f.Truncate(j.size); terr != nil {
				j.opts.Logger.Warn("journal: trim after short write failed", "error", terr)
			}
		}
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size += int64(n)
	return nil
}

// compactLocked rotates to a fresh segment holding a snapshot of the
// in-memory state, then deletes the older segments. The snapshot is
// written temp → fsync → rename, and the replay merge is idempotent, so a
// crash at any point leaves a recoverable journal.
func (j *Journal) compactLocked() error {
	next := j.seg + 1
	tmp, err := os.CreateTemp(j.dir, segPrefix+"compact-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	size, err := j.writeSnapshot(tmp)
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	path := filepath.Join(j.dir, segName(next))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	old := j.seg
	j.f, j.seg, j.size = f, next, size
	// Drop pruned IDs from Order now that the snapshot no longer carries
	// them, keeping replay state and disk in lockstep.
	live := j.state.Order[:0]
	for _, id := range j.state.Order {
		if _, ok := j.state.Jobs[id]; ok {
			live = append(live, id)
		}
	}
	j.state.Order = live
	for n := old; n >= 1; n-- {
		p := filepath.Join(j.dir, segName(n))
		if err := os.Remove(p); err != nil {
			if os.IsNotExist(err) {
				break
			}
			j.opts.Logger.Warn("journal: removing old segment failed", "segment", segName(n), "error", err)
		}
	}
	j.opts.Logger.Info("journal: compacted", "segment", segName(next),
		"jobs", len(j.state.Jobs), "bytes", size)
	return nil
}

// writeSnapshot serializes the in-memory state as a minimal record stream:
// live jobs keep their payload (they must be re-runnable), terminal jobs
// keep only identity + outcome.
func (j *Journal) writeSnapshot(f *os.File) (int64, error) {
	var size int64
	emit := func(rec Record) error {
		line, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		n, err := f.Write(line)
		size += int64(n)
		return err
	}
	for _, id := range j.state.Order {
		js, ok := j.state.Jobs[id]
		if !ok {
			continue // pruned
		}
		sub := Record{Type: TypeSubmitted, JobID: js.ID, Kind: js.Kind,
			RequestID: js.RequestID, IdemKey: js.IdemKey, Time: js.Submitted}
		if !js.Terminal {
			sub.Payload = js.Payload
		}
		if err := emit(sub); err != nil {
			return size, err
		}
		if js.Attempts > 0 {
			if err := emit(Record{Type: TypeStarted, JobID: js.ID, Attempt: js.Attempts, Time: js.Started}); err != nil {
				return size, err
			}
		}
		if js.LastStage != "" && !js.Terminal {
			if err := emit(Record{Type: TypeStage, JobID: js.ID, Stage: js.LastStage, Time: js.Started}); err != nil {
				return size, err
			}
		}
		if js.Terminal {
			if err := emit(Record{Type: TypeTerminal, JobID: js.ID, State: js.State, Error: js.Error, Time: js.Finished}); err != nil {
				return size, err
			}
		}
	}
	return size, nil
}

// Degraded reports whether the most recent append failed — the disk-
// pressure signal the serving layer keys 503s and the
// rsmd_journal_degraded gauge off.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Close syncs and closes the active segment. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	return j.f.Close()
}

// syncDir fsyncs a directory so a rename/truncate inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
