package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// mustOpen opens a journal in dir and fails the test on error.
func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Replay) {
	t.Helper()
	j, rp, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rp
}

// appendAll appends records, failing the test on the first error.
func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func submittedRec(id, kind, idem string) Record {
	return Record{Type: TypeSubmitted, JobID: id, Kind: kind, IdemKey: idem,
		Payload: json.RawMessage(`{"name":"m"}`)}
}

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, rp := mustOpen(t, dir, Options{})
	if len(rp.Jobs) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(rp.Jobs))
	}
	appendAll(t, j,
		submittedRec("job-000001", "fit", "key-1"),
		Record{Type: TypeStarted, JobID: "job-000001", Attempt: 1},
		Record{Type: TypeTerminal, JobID: "job-000001", State: "done"},
		submittedRec("job-000002", "pipeline", "key-2"),
		Record{Type: TypeStarted, JobID: "job-000002", Attempt: 1},
		Record{Type: TypeStage, JobID: "job-000002", Stage: "sample"},
		submittedRec("job-000003", "fit", ""),
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rp2 := mustOpen(t, dir, Options{})
	if got := len(rp2.Jobs); got != 3 {
		t.Fatalf("replayed %d jobs, want 3", got)
	}
	j1 := rp2.Jobs["job-000001"]
	if !j1.Terminal || j1.State != "done" || j1.Kind != "fit" {
		t.Fatalf("job-000001 state %+v", j1)
	}
	j2 := rp2.Jobs["job-000002"]
	if j2.Terminal || j2.State != "running" || j2.Attempts != 1 || j2.LastStage != "sample" {
		t.Fatalf("job-000002 state %+v", j2)
	}
	j3 := rp2.Jobs["job-000003"]
	if j3.State != "pending" || j3.Attempts != 0 {
		t.Fatalf("job-000003 state %+v", j3)
	}
	if len(j2.Payload) == 0 || len(j3.Payload) == 0 {
		t.Fatal("live jobs lost their payloads")
	}
	live := rp2.Live()
	if len(live) != 2 || live[0].ID != "job-000002" || live[1].ID != "job-000003" {
		t.Fatalf("live jobs %v", live)
	}
	if rp2.IdemKeys["key-1"] != "job-000001" || rp2.IdemKeys["key-2"] != "job-000002" {
		t.Fatalf("idem keys %v", rp2.IdemKeys)
	}
	if rp2.MaxJobNum != 3 {
		t.Fatalf("MaxJobNum %d, want 3", rp2.MaxJobNum)
	}
	if rp2.BadLines != 0 || rp2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported corruption: %+v", rp2)
	}
}

// TestTerminalJobReleasesPayload: the in-memory state holds a job's
// payload only while the job may still run. A terminal job never re-runs
// and a snapshot omits its payload, so keeping it would grow the daemon's
// heap by one request body per finished job, up to MaxTerminal of them.
func TestTerminalJobReleasesPayload(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	appendAll(t, j,
		submittedRec("job-000001", "fit", ""),
		Record{Type: TypeTerminal, JobID: "job-000001", State: "done"},
		submittedRec("job-000001", "fit", ""), // a late duplicate
		submittedRec("job-000002", "fit", ""),
	)
	if js := j.state.Jobs["job-000001"]; !js.Terminal || js.Payload != nil {
		t.Fatalf("terminal job state %+v, want no payload", js)
	}
	if len(j.state.Jobs["job-000002"].Payload) == 0 {
		t.Fatal("pending job lost its payload")
	}
}

// TestJournalCompaction drives enough appends through a tiny segment bound
// to force rotation, and checks old segments are gone while the state
// survives reopen intact.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{MaxSegmentBytes: 512})
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendAll(t, j,
			submittedRec(id, "fit", fmt.Sprintf("key-%d", i)),
			Record{Type: TypeStarted, JobID: id, Attempt: 1},
			Record{Type: TypeTerminal, JobID: id, State: "done"},
		)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("after compaction %d segments on disk (%v), want 1", len(segs), segs)
	}
	if segs[0] < 2 {
		t.Fatalf("compaction never rotated: active segment %d", segs[0])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rp := mustOpen(t, dir, Options{})
	if len(rp.Jobs) != 40 {
		t.Fatalf("replayed %d jobs after compaction, want 40", len(rp.Jobs))
	}
	for i := 1; i <= 40; i++ {
		js := rp.Jobs[fmt.Sprintf("job-%06d", i)]
		if js == nil || !js.Terminal || js.State != "done" {
			t.Fatalf("job %d corrupted by compaction: %+v", i, js)
		}
	}
}

// TestJournalTerminalPruning bounds terminal retention: beyond MaxTerminal
// the oldest terminal jobs are dropped, their idempotency keys freed, and a
// late duplicate record cannot resurrect them.
func TestJournalTerminalPruning(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{MaxTerminal: 2})
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendAll(t, j,
			submittedRec(id, "fit", fmt.Sprintf("key-%d", i)),
			Record{Type: TypeTerminal, JobID: id, State: "done"},
		)
	}
	// A duplicate terminal record for a pruned job must not bring it back.
	appendAll(t, j, Record{Type: TypeTerminal, JobID: "job-000001", State: "failed"})
	j.mu.Lock()
	st := j.state
	if len(st.terminalOrder) != 2 {
		j.mu.Unlock()
		t.Fatalf("retained %d terminal jobs, want 2", len(st.terminalOrder))
	}
	if _, ok := st.Jobs["job-000001"]; ok {
		j.mu.Unlock()
		t.Fatal("pruned job resurrected by duplicate terminal record")
	}
	if _, ok := st.IdemKeys["key-1"]; ok {
		j.mu.Unlock()
		t.Fatal("pruned job's idempotency key not freed")
	}
	j.mu.Unlock()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rp := mustOpen(t, dir, Options{MaxTerminal: 2})
	if _, ok := rp.Jobs["job-000001"]; ok {
		t.Fatal("pruned job reappeared after reopen")
	}
	if js := rp.Jobs["job-000005"]; js == nil || !js.Terminal {
		t.Fatalf("newest terminal job lost: %+v", js)
	}
}

// TestJournalTruncatedTail simulates a torn write (power loss mid-append):
// the partial final line is truncated off at open and appends continue on
// the cleaned file.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j,
		submittedRec("job-000001", "fit", ""),
		Record{Type: TypeTerminal, JobID: "job-000001", State: "done"},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"submitted","job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rp := mustOpen(t, dir, Options{})
	if rp.TruncatedBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if len(rp.Jobs) != 1 || !rp.Jobs["job-000001"].Terminal {
		t.Fatalf("state after truncation: %+v", rp.Jobs)
	}
	// The file is clean again: new appends must replay correctly.
	appendAll(t, j2, submittedRec("job-000002", "fit", ""))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rp3 := mustOpen(t, dir, Options{})
	if rp3.TruncatedBytes != 0 || rp3.BadLines != 0 {
		t.Fatalf("corruption after clean append: %+v", rp3)
	}
	if len(rp3.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rp3.Jobs))
	}
}

// TestJournalMidFileGarbage: corrupt lines with good records after them are
// skipped and counted, not fatal, and do not lose the good records.
func TestJournalMidFileGarbage(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"type":"submitted","job":"job-000001","kind":"fit"}`,
		`NOT JSON AT ALL`,
		`{"type":"submitted","job":""}`, // parseable but invalid: no job ID
		`{"type":"started","job":"job-000001","attempt":1}`,
		`{"type":"terminal","job":"job-000001","state":"done"}`,
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)),
		[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rp := mustOpen(t, dir, Options{})
	if rp.BadLines != 2 {
		t.Fatalf("BadLines = %d, want 2", rp.BadLines)
	}
	js := rp.Jobs["job-000001"]
	if js == nil || !js.Terminal || js.State != "done" || js.Attempts != 1 {
		t.Fatalf("records after garbage lost: %+v", js)
	}
}

// TestJournalDuplicateTerminal: the first terminal record wins forever —
// later conflicting terminals and post-terminal lifecycle records are
// ignored.
func TestJournalDuplicateTerminal(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j,
		submittedRec("job-000001", "fit", ""),
		Record{Type: TypeTerminal, JobID: "job-000001", State: "canceled", Error: "client"},
		Record{Type: TypeTerminal, JobID: "job-000001", State: "done"},
		Record{Type: TypeStarted, JobID: "job-000001", Attempt: 7},
		Record{Type: TypeStage, JobID: "job-000001", Stage: "sample"},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rp := mustOpen(t, dir, Options{})
	js := rp.Jobs["job-000001"]
	if js.State != "canceled" || js.Error != "client" {
		t.Fatalf("terminal not first-wins: %+v", js)
	}
	if js.LastStage != "" {
		t.Fatalf("post-terminal stage applied: %+v", js)
	}
	if len(rp.Live()) != 0 {
		t.Fatal("terminal job resurrected into the live set")
	}
}

// TestJournalDegradedRecovers: a failed append (disk full, injected) flips
// the degraded flag; the first successful append clears it and the failed
// record is not half-written.
func TestJournalDegradedRecovers(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, submittedRec("job-000001", "fit", ""))

	if err := faultinject.Configure("journal.append=error:disk full#1"); err != nil {
		t.Fatal(err)
	}
	err := j.Append(submittedRec("job-000002", "fit", ""))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("append under fault: %v", err)
	}
	if !j.Degraded() {
		t.Fatal("failed append did not degrade the journal")
	}
	// Fault exhausted: the next append succeeds and clears the flag.
	appendAll(t, j, submittedRec("job-000003", "fit", ""))
	if j.Degraded() {
		t.Fatal("successful append did not clear degraded")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rp := mustOpen(t, dir, Options{})
	if _, ok := rp.Jobs["job-000002"]; ok {
		t.Fatal("failed append left a record behind")
	}
	if len(rp.Jobs) != 2 || rp.BadLines != 0 || rp.TruncatedBytes != 0 {
		t.Fatalf("journal dirty after degraded episode: %+v", rp)
	}
}

// TestJournalAppendAfterClose: the contract is a clean error, not a panic
// or a write to a closed fd.
func TestJournalAppendAfterClose(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submittedRec("job-000001", "fit", "")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// FuzzReplayJournal hammers the replay parser with arbitrary segment bytes.
// Whatever the corruption — truncated tails, interleaved garbage, duplicate
// or conflicting terminal records — Open must not panic, and the invariants
// must hold: terminal jobs never appear in the live set, and reopening the
// journal after a clean append yields a state at least as terminal as the
// first replay (no terminal job resurrected).
func FuzzReplayJournal(f *testing.F) {
	good := `{"type":"submitted","job":"job-000001","kind":"fit","idem_key":"k1","payload":{"name":"m"}}
{"type":"started","job":"job-000001","attempt":1}
{"type":"terminal","job":"job-000001","state":"done"}
{"type":"submitted","job":"job-000002","kind":"pipeline"}
{"type":"stage","job":"job-000002","stage":"sample"}
`
	f.Add([]byte(good))
	f.Add([]byte(good[:len(good)-20])) // torn tail
	f.Add([]byte("garbage\n" + good + "{\"type\":\"terminal\",\"job\":\"job-000001\",\"state\":\"failed\"}\n"))
	f.Add([]byte(`{"type":"terminal","job":"job-000001","state":"done"}` + "\n" +
		`{"type":"submitted","job":"job-000001","kind":"fit"}` + "\n" +
		`{"type":"started","job":"job-000001","attempt":3}` + "\n"))
	f.Add([]byte("\x00\x01\x02\nnot json\n{\"type\":\"submitted\"}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rp, err := Open(dir, Options{MaxTerminal: 4})
		if err != nil {
			// I/O-level failure is acceptable; parser-level corruption is not
			// supposed to error out.
			t.Skipf("open: %v", err)
		}
		terminal := map[string]string{}
		for id, js := range rp.Jobs {
			if js.ID != id {
				t.Fatalf("job map key %q holds ID %q", id, js.ID)
			}
			if js.Terminal {
				terminal[id] = js.State
			}
		}
		for _, js := range rp.Live() {
			if js.Terminal {
				t.Fatalf("terminal job %s in live set", js.ID)
			}
		}
		// A clean append after corruption must work, and reopening must not
		// resurrect any terminal job.
		if err := j.Append(Record{Type: TypeSubmitted, JobID: "job-999999", Kind: "fit"}); err != nil {
			t.Fatalf("append after corrupt replay: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, rp2, err := Open(dir, Options{MaxTerminal: 4})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for id, state := range terminal {
			js := rp2.Jobs[id]
			if js == nil {
				continue // pruned by the retention bound — allowed
			}
			if !js.Terminal || js.State != state {
				t.Fatalf("job %s was terminal %q, reopened as %q (terminal=%v)",
					id, state, js.State, js.Terminal)
			}
		}
		if js := rp2.Jobs["job-999999"]; js == nil && rp2.Jobs != nil {
			if _, pruned := rp2.pruned["job-999999"]; !pruned {
				t.Fatal("appended record lost across reopen")
			}
		}
	})
}
