package server

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/journal"
	"repro/internal/obs/trace"
)

// idemKeyHeader carries the client's submit-dedup token on every job
// submit route; idemReplayedHeader marks a 202 that returned an
// already-known job instead of enqueuing a new one.
const (
	idemKeyHeader      = "Idempotency-Key"
	idemReplayedHeader = "Idempotency-Replayed"
)

// maxIdemKeyLen bounds accepted keys so a hostile header cannot bloat the
// journal or the dedup map.
const maxIdemKeyLen = 128

// idempotencyKey extracts and validates the request's Idempotency-Key.
// Absent is fine (ok with key ""); a malformed key is a 400, because
// silently ignoring it would break the exactly-once contract the client
// thinks it has.
func idempotencyKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.Header.Get(idemKeyHeader)
	if key == "" {
		return "", true
	}
	if len(key) > maxIdemKeyLen {
		writeErr(w, http.StatusBadRequest, "%s longer than %d bytes", idemKeyHeader, maxIdemKeyLen)
		return "", false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			writeErr(w, http.StatusBadRequest, "%s contains invalid byte %q", idemKeyHeader, c)
			return "", false
		}
	}
	return key, true
}

// recoverJournal rebuilds the job queue from the replayed journal state,
// before the workers start:
//
//   - terminal jobs are restored as queryable records (state, error and
//     identity — results are not journaled) without re-counting terminal
//     metrics;
//   - live jobs of a kind missing from jobKinds are quarantined as failed,
//     never run as another kind;
//   - live jobs that already crashed the daemon RecoveryMaxAttempts times
//     are quarantined as failed — the poison-job guard — and that outcome
//     is journaled so it sticks;
//   - remaining live jobs are re-enqueued to run again, carrying their
//     recovery-attempt count into telemetry and provenance.
func (s *Server) recoverJournal(rp *journal.Replay) {
	// The whole replay is one pinned boot trace: each replayed job becomes
	// a child span recording the decision taken for it (restored /
	// quarantined / recovered), so a crash-recovery boot is inspectable in
	// /v1/traces like any request.
	rctx, replaySpan := s.traces.StartRoot(context.Background(), "journal.replay",
		trace.WithPin(), trace.WithAttrs(trace.Int("jobs", len(rp.Order))))
	defer replaySpan.End()
	for _, id := range rp.Order {
		js, ok := rp.Jobs[id]
		if !ok {
			continue // pruned by the terminal-retention bound
		}
		_, jobSpan := trace.Start(rctx, "replay.job",
			trace.WithAttrs(trace.String("job_id", id), trace.String("kind", js.Kind)))
		s.metrics.add(jobsReplayed, 1)
		j := &job{
			id: js.ID, kind: js.Kind, requestID: js.RequestID, idemKey: js.IdemKey,
			attempt: js.Attempts, submitted: js.Submitted, started: js.Started,
		}
		if j.kind == "" {
			j.kind = JobKindFit // legacy records predate the kind field
		}
		j.ctx, j.cancel = context.WithCancel(context.Background())
		kind, known := kindByName(j.kind)
		switch {
		case js.Terminal:
			// A restored terminal job reports how many recovery re-runs it
			// took (starts beyond the first), not its raw start count — a
			// job that finished in its first life stays at 0 forever.
			if j.attempt > 0 {
				j.attempt--
			}
			j.state = js.State
			if !terminalState(j.state) {
				// A corrupt terminal record still retires the job; the state
				// string just gets normalized.
				j.state = JobFailed
			}
			j.err = js.Error
			j.finished = js.Finished
			j.cancel()
			s.jobs.restore(j, false)
			jobSpan.SetAttr("decision", "restored-terminal")
		case !known:
			s.quarantine(j, fmt.Sprintf("quarantined: unknown job kind %q", j.kind))
			jobSpan.SetAttr("decision", "quarantined")
		case js.Attempts >= s.cfg.RecoveryMaxAttempts:
			s.quarantine(j, fmt.Sprintf(
				"quarantined: job crashed the daemon %d times (recovery limit %d)",
				js.Attempts, s.cfg.RecoveryMaxAttempts))
			jobSpan.SetAttr("decision", "quarantined")
		default:
			req, err := kind.decode(js.Payload)
			if len(js.Payload) == 0 {
				err = fmt.Errorf("no payload journaled")
			}
			if err != nil {
				s.quarantine(j, fmt.Sprintf("quarantined: journal payload unusable: %v", err))
				jobSpan.SetAttr("decision", "quarantined")
				jobSpan.EndErr(err)
				continue
			}
			j.req = req
			j.state = JobPending
			// A recovered job's submitting request is long gone; give its
			// re-run a pinned root trace of its own so GET /v1/jobs/{id}/trace
			// still works across the crash.
			_, j.span = s.traces.StartRoot(context.Background(), "job",
				trace.WithPin(), trace.WithAttrs(
					trace.String("job_id", j.id), trace.String("kind", j.kind),
					trace.Int("recovery_attempt", j.attempt), trace.Bool("recovered", true)))
			j.traceID = j.span.TraceID()
			s.jobs.restore(j, true)
			s.metrics.add(jobsRecovered, 1)
			s.log.Info("recovered journaled job", "job_id", j.id, "kind", j.kind,
				"recovery_attempt", j.attempt, "last_stage", js.LastStage, "trace_id", j.traceID)
			jobSpan.SetAttr("decision", "recovered")
		}
		jobSpan.End()
	}
	if n := len(rp.Order); n > 0 {
		s.log.Info("journal replay complete", "jobs", n,
			"records", rp.Records, "bad_lines", rp.BadLines, "truncated_bytes", rp.TruncatedBytes)
	}
}

// quarantine retires a replayed job as failed without re-running it, and
// journals that outcome so the next restart doesn't try again either. It
// counts as a quarantine, not as an organic job failure.
func (s *Server) quarantine(j *job, reason string) {
	j.state = JobFailed
	j.err = reason
	j.cancel()
	s.jobs.restore(j, false)
	s.metrics.add(jobsQuarantined, 1)
	s.jobs.noteTerminalRecordOnly(j, JobFailed, reason)
	s.log.Warn("quarantined journaled job", "job_id", j.id, "kind", j.kind, "reason", reason)
}
