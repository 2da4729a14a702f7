package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/mc"
	"repro/internal/obs/trace"
)

// jobEventBuffer bounds the live-event channel handed to each subscriber;
// a subscriber that lags this far behind loses events (the SSE handler
// reports the gap via sequence numbers).
const jobEventBuffer = 256

// maxJobEvents caps the per-job fit timeline so a pathological request
// (huge max_lambda × many folds) cannot grow a job record without bound.
// Later events are dropped; the cap comfortably covers the default
// max_lambda of 50 across any fold count.
const maxJobEvents = 4096

// Job states. Pending and running are live; the other four are terminal.
const (
	JobPending  = "pending"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"  // DELETE /v1/jobs/{id} or daemon drain
	JobTimedOut = "timed_out" // per-job deadline expired mid-fit
)

// terminalState reports whether a job state is final.
func terminalState(state string) bool {
	switch state {
	case JobDone, JobFailed, JobCanceled, JobTimedOut:
		return true
	}
	return false
}

// job is one queued async request (a fit, pipeline or refine) and its
// lifecycle record. The mutex-guarded fields are updated by the worker and
// read by status polls; ctx is canceled by DELETE /v1/jobs/{id} (or
// /v1/pipelines/{id}) and by queue shutdown, and the worker layers the
// per-job deadline on top of it.
type job struct {
	id        string
	kind      string     // a jobKinds name; a replayed job may carry an unknown one
	requestID string     // trace ID of the submitting request
	idemKey   string     // Idempotency-Key of the submitting request ("" = none)
	attempt   int        // crash-recovery replays before this life (0 = first)
	req       jobRequest // nil on a replayed job that will not run again
	q         *jobQueue  // owning queue, for terminal bookkeeping

	ctx    context.Context
	cancel context.CancelFunc

	// span is the job-lifetime trace span (a pinned holder under the
	// submitting request's trace, or a root of its own for recovered jobs);
	// nil when tracing is disabled. traceID is cached for status reports.
	span    *trace.Span
	traceID string

	// leftQueue marks that the job's pending-depth slot was released
	// (worker pickup or pending-cancel); guarded by q.mu via leaveQueue.
	leftQueue bool

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    jobResult           // set when done
	events    []FitEventInfo      // solver telemetry timeline, capped at maxJobEvents
	stages    []PipelineStageInfo // pipeline stage timeline
	// timeline is the unified job event stream (state transitions, fit
	// telemetry, pipeline stages) served by GET /v1/jobs/{id}/events; subs
	// are the live SSE subscribers, closed on the terminal transition.
	timeline []JobEvent
	seq      int
	subs     map[int]chan JobEvent
	nextSub  int
	// noPersist suppresses the terminal journal record for drain/shutdown
	// cancellations: the job must be re-run after restart, so its journal
	// trail is deliberately left non-terminal.
	noPersist bool
}

// broadcastLocked stamps, records and fans one event out to the live
// subscribers. Caller holds j.mu. The timeline shares maxJobEvents with the
// fit-event cap (plus slack for state/stage entries, which are few); a
// lagging subscriber's full channel drops the event for that subscriber
// only — sequence numbers let it detect the gap.
func (j *job) broadcastLocked(ev JobEvent) {
	j.seq++
	ev.Seq = j.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if len(j.timeline) < maxJobEvents+128 {
		j.timeline = append(j.timeline, ev)
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// stateEventLocked broadcasts a state-transition event. Caller holds j.mu.
func (j *job) stateEventLocked() {
	j.broadcastLocked(JobEvent{Type: JobEventState, State: j.state, Error: j.err})
}

// closeSubsLocked ends every live subscription — the job reached a
// terminal state and no further events can come. Caller holds j.mu.
func (j *job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// subscribe returns the job's event timeline so far plus, for a live job,
// a channel of subsequent events and a cancel func. A terminal job returns
// a nil channel: the snapshot is the whole story.
func (j *job) subscribe() (snapshot []JobEvent, ch chan JobEvent, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	snapshot = append([]JobEvent(nil), j.timeline...)
	if terminalState(j.state) {
		return snapshot, nil, func() {}
	}
	c := make(chan JobEvent, jobEventBuffer)
	if j.subs == nil {
		j.subs = make(map[int]chan JobEvent)
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	return snapshot, c, func() {
		j.mu.Lock()
		if sub, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(sub)
		}
		j.mu.Unlock()
	}
}

// status snapshots the job as an API JobStatus.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &JobStatus{
		ID: j.id, Kind: j.kind, RequestID: j.requestID, TraceID: j.traceID, State: j.state,
		Submitted: j.submitted, Error: j.err, RecoveryAttempt: j.attempt,
	}
	if j.result != nil {
		j.result.report(s)
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if len(j.events) > 0 {
		s.Events = append([]FitEventInfo(nil), j.events...)
	}
	if len(j.stages) > 0 {
		s.Stages = append([]PipelineStageInfo(nil), j.stages...)
	}
	return s
}

// addStage appends one pipeline stage record to the job timeline.
func (j *job) addStage(info PipelineStageInfo) {
	j.mu.Lock()
	j.stages = append(j.stages, info)
	stage := info
	j.broadcastLocked(JobEvent{Type: JobEventStage, Stage: &stage})
	j.mu.Unlock()
}

// addEvent appends one solver telemetry event to the job timeline. It is
// the core.FitObserver for this job's fit, called from the worker goroutine
// while status polls read concurrently.
func (j *job) addEvent(ev core.FitEvent) {
	info := FitEventInfo{
		Stage:           ev.Stage,
		Iter:            ev.Iter,
		Basis:           ev.Basis,
		Active:          ev.Active,
		Residual:        ev.Residual,
		ElapsedSeconds:  ev.Elapsed.Seconds(),
		ParallelWorkers: ev.Workers,
	}
	j.mu.Lock()
	if len(j.events) < maxJobEvents {
		j.events = append(j.events, info)
		fit := info
		j.broadcastLocked(JobEvent{Type: JobEventFit, Fit: &fit})
	}
	j.mu.Unlock()
}

// begin transitions pending → running; it fails when the job was canceled
// while queued, in which case the worker must skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobPending {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.stateEventLocked()
	return true
}

// finish records a terminal state and runs the queue's terminal
// bookkeeping (metrics + journal); later transitions are ignored.
func (j *job) finish(state, errMsg string, result jobResult) bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.result = result
	j.finished = time.Now()
	persist := !j.noPersist
	j.stateEventLocked()
	j.closeSubsLocked()
	j.mu.Unlock()
	j.q.noteTerminal(j, state, errMsg, persist)
	return true
}

// requestCancel asks the job to stop. A pending job transitions to canceled
// immediately (the worker will skip it); a running job is interrupted
// through its context and reaches a terminal state when the solver notices.
// Canceling a terminal job is a no-op. Reports whether the job went straight
// from pending to canceled.
//
// persist distinguishes a client cancellation (true: the canceled state is
// journaled and survives restarts) from a drain/shutdown cancellation
// (false: the journal trail stays non-terminal so the next boot re-runs
// the job — the whole point of the durable queue).
func (j *job) requestCancel(reason string, persist bool) bool {
	j.mu.Lock()
	wasPending := j.state == JobPending
	if wasPending {
		j.state = JobCanceled
		j.err = reason
		j.finished = time.Now()
		j.stateEventLocked()
		j.closeSubsLocked()
	}
	if !persist {
		// Mark before cancel() so the worker's finish() sees it when the
		// context death lands the running job in canceled.
		j.noPersist = true
	}
	j.mu.Unlock()
	j.cancel()
	if wasPending {
		// The job never reached a worker: release its pending-depth slot
		// here (the worker's own release at pickup is an idempotent no-op).
		j.q.leaveQueue(j)
		j.q.noteTerminal(j, JobCanceled, reason, persist)
	}
	return wasPending
}

// jobQueue is a bounded FIFO of jobs of every kind, drained by a fixed
// worker pool. When a journal is attached, every admission writes (and
// fsyncs) a submitted record before the job becomes visible, and every
// terminal transition appends a terminal record — the durable-queue
// contract.
type jobQueue struct {
	mu     sync.Mutex
	byID   map[string]*job
	idem   map[string]*job // Idempotency-Key → original job
	nextID int
	closed bool
	// idPrefix namespaces job IDs with the minting node's cluster member
	// name ("s1." → "s1.job-000042") so any node can route a poll back to
	// the shard running the job. Empty on unclustered nodes.
	idPrefix string
	// pending counts jobs admitted but not yet released by leaveQueue
	// (worker pickup or pending-cancel) — the rsmd_job_queue_depth gauge.
	// Tracked explicitly rather than as len(queue) because a job canceled
	// while queued still occupies a channel slot until a worker skips it,
	// and that slot must not read as backlog.
	pending int

	queue      chan *job
	wg         sync.WaitGroup
	onTerminal func(kind, state string) // metrics hook for queue-side transitions
	jnl        *journal.Journal         // nil = durability disabled
	log        *slog.Logger
}

func newJobQueue(depth int, onTerminal func(kind, state string), jnl *journal.Journal, log *slog.Logger) *jobQueue {
	if depth < 1 {
		depth = 1
	}
	if log == nil {
		log = slog.Default()
	}
	return &jobQueue{
		byID: make(map[string]*job), idem: make(map[string]*job),
		queue: make(chan *job, depth), onTerminal: onTerminal, jnl: jnl, log: log,
	}
}

// enqueue admits a job of req's kind, failing when the queue is full or
// closed. It assigns the job its ID and context after the journal (when
// attached) durably recorded the submission. The fsync happens under the
// queue lock — submissions serialize on it, which is the price of never
// acknowledging a job the disk hasn't seen. The submitting request's ctx
// supplies the trace: the job gets a pinned holding span under it, created
// before the channel send so a worker can never pick the job up span-less.
// requestID is stamped on the job so its whole lifecycle correlates back to
// one trace. existing reports an Idempotency-Key dedup hit: the returned
// job is the original, and nothing new was enqueued.
func (q *jobQueue) enqueue(ctx context.Context, req jobRequest, requestID, idemKey string) (*job, bool, error) {
	j := &job{kind: req.kind(), requestID: requestID, idemKey: idemKey, req: req}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, fmt.Errorf("server: shutting down")
	}
	if j.idemKey != "" {
		if prev, ok := q.idem[j.idemKey]; ok {
			return prev, true, nil
		}
	}
	if len(q.queue) == cap(q.queue) {
		return nil, false, fmt.Errorf("server: fit queue full (%d pending)", cap(q.queue))
	}
	id := fmt.Sprintf("%sjob-%06d", q.idPrefix, q.nextID+1)
	if q.jnl != nil {
		payload, err := json.Marshal(req)
		if err != nil {
			return nil, false, fmt.Errorf("server: encode job payload: %w", err)
		}
		_, jspan := trace.Start(ctx, "journal.append",
			trace.WithAttrs(trace.String("record", journal.TypeSubmitted)))
		err = q.jnl.Append(journal.Record{
			Type: journal.TypeSubmitted, JobID: id, Kind: j.kind,
			RequestID: j.requestID, IdemKey: j.idemKey, Payload: payload,
		})
		jspan.EndErr(err)
		if err != nil {
			return nil, false, fmt.Errorf("server: job journal degraded, async submits disabled: %w", err)
		}
	}
	q.nextID++
	j.id = id
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.state = JobPending
	j.submitted = time.Now()
	j.q = q
	_, j.span = trace.Start(ctx, "job", trace.WithHold(), trace.WithPin(),
		trace.WithAttrs(trace.String("job_id", id), trace.String("kind", j.kind)))
	j.traceID = j.span.TraceID()
	j.stateEventLocked() // seed the event timeline with "pending"
	q.pending++
	// Cannot block: capacity was checked under the lock and only workers
	// drain the channel.
	q.queue <- j
	q.byID[id] = j
	if j.idemKey != "" {
		q.idem[j.idemKey] = j
	}
	return j, false, nil
}

// restore re-inserts a journal-replayed job at boot, before the workers
// start: terminal and quarantined jobs become queryable without touching
// the queue; live jobs are re-enqueued for another run. The ID sequence
// and idempotency map pick up where the previous life left off.
func (q *jobQueue) restore(j *job, enqueue bool) {
	q.mu.Lock()
	j.q = q
	q.byID[j.id] = j
	if j.idemKey != "" {
		if _, taken := q.idem[j.idemKey]; !taken {
			q.idem[j.idemKey] = j
		}
	}
	if n, ok := jobIDNum(j.id); ok && n > q.nextID {
		q.nextID = n
	}
	if enqueue {
		q.pending++
		j.mu.Lock()
		j.stateEventLocked()
		j.mu.Unlock()
	}
	q.mu.Unlock()
	if enqueue {
		q.queue <- j
	}
}

// jobIDNum parses the numeric suffix of a job-%06d ID, with or without a
// node prefix ("s1.job-000042"): the journal replays IDs minted under
// either naming, and the sequence must advance past both.
func jobIDNum(id string) (int, bool) {
	if i := strings.LastIndex(id, "job-"); i > 0 {
		id = id[i:]
	}
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// noteTerminal is the single terminal-transition sink: it feeds the
// terminal-state metrics and, when persist is set, appends the terminal
// journal record. Callers must not hold j.mu.
func (q *jobQueue) noteTerminal(j *job, state, errMsg string, persist bool) {
	// End the job's trace span here — the single terminal sink — so every
	// terminal path (worker finish, pending-cancel, drain) seals the trace.
	j.span.SetAttr("state", state)
	if state == JobFailed || state == JobTimedOut {
		j.span.SetStatus(trace.StatusError, errMsg)
	}
	j.span.End()
	if q.onTerminal != nil {
		q.onTerminal(j.kind, state)
	}
	if persist && q.jnl != nil {
		if err := q.jnl.Append(journal.Record{
			Type: journal.TypeTerminal, JobID: j.id, Kind: j.kind, State: state, Error: errMsg,
		}); err != nil {
			q.log.Warn("journal: terminal record append failed (job outcome may repeat after restart)",
				"job_id", j.id, "state", state, "error", err)
		}
	}
}

// noteTerminalRecordOnly appends a terminal journal record without feeding
// the terminal-state metrics — the quarantine path, where the "failure"
// is a replay decision, not an organic job outcome.
func (q *jobQueue) noteTerminalRecordOnly(j *job, state, errMsg string) {
	if q.jnl == nil {
		return
	}
	if err := q.jnl.Append(journal.Record{
		Type: journal.TypeTerminal, JobID: j.id, Kind: j.kind, State: state, Error: errMsg,
	}); err != nil {
		q.log.Warn("journal: quarantine record append failed", "job_id", j.id, "error", err)
	}
}

// noteStarted journals a worker pickup. Attempt counts total starts across
// lives, so replay can tell how many times the job already crashed the
// daemon.
func (q *jobQueue) noteStarted(j *job) {
	if q.jnl == nil {
		return
	}
	if err := q.jnl.Append(journal.Record{
		Type: journal.TypeStarted, JobID: j.id, Kind: j.kind, Attempt: j.attempt + 1,
	}); err != nil {
		q.log.Warn("journal: started record append failed", "job_id", j.id, "error", err)
	}
}

// noteStage journals a completed pipeline stage — a progress breadcrumb
// that survives restarts (the stage timeline itself is rebuilt by the
// re-run).
func (q *jobQueue) noteStage(j *job, stage string) {
	if q.jnl == nil {
		return
	}
	if err := q.jnl.Append(journal.Record{
		Type: journal.TypeStage, JobID: j.id, Kind: j.kind, Stage: stage,
	}); err != nil {
		q.log.Warn("journal: stage record append failed", "job_id", j.id, "stage", stage, "error", err)
	}
}

// get looks a job up by id.
func (q *jobQueue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// saturated reports whether the pending-job channel is full — the signal the
// server's load shedding keys off. It deliberately reads the channel, not
// the pending counter: a canceled-but-unskipped job still occupies a
// channel slot, so admission capacity really is exhausted until a worker
// drains it.
func (q *jobQueue) saturated() bool { return len(q.queue) == cap(q.queue) }

// depth reports the number of jobs admitted and still awaiting a worker —
// the rsmd_job_queue_depth gauge. Jobs canceled while pending leave the
// count immediately even though they sit in the channel until skipped.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// leaveQueue releases the job's pending-depth slot, exactly once across
// the two release paths (worker pickup, pending-cancel).
func (q *jobQueue) leaveQueue(j *job) {
	q.mu.Lock()
	if !j.leftQueue {
		j.leftQueue = true
		q.pending--
	}
	q.mu.Unlock()
}

// cancelJob requests client cancellation of the job with the given id; the
// canceled outcome is journaled so it sticks across restarts (a canceled
// job is never resurrected by replay).
func (q *jobQueue) cancelJob(id, reason string) (*job, bool) {
	j, ok := q.get(id)
	if !ok {
		return nil, false
	}
	j.requestCancel(reason, true)
	return j, true
}

// cancelAll requests cancellation of every live job (drain path). The
// cancellations are deliberately not journaled: a drained-away job's trail
// stays non-terminal, so the next boot replays and re-runs it.
func (q *jobQueue) cancelAll(reason string) {
	q.mu.Lock()
	jobs := make([]*job, 0, len(q.byID))
	for _, j := range q.byID {
		jobs = append(jobs, j)
	}
	q.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel(reason, false)
	}
}

// close stops accepting jobs and waits for in-flight ones to finish, however
// long they take. Shutdown is the bounded variant.
func (q *jobQueue) close() { _ = q.shutdown(context.Background()) }

// shutdown stops accepting jobs and drains the workers. Jobs still live when
// ctx expires are canceled (the solvers' cooperative checks make the workers
// return promptly) and the workers are then awaited unconditionally.
func (q *jobQueue) shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.queue)
	}
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	q.cancelAll("canceled: daemon shutting down")
	<-done
	return ctx.Err()
}

// startWorkers launches n goroutines running fn per dequeued job.
func (q *jobQueue) startWorkers(n int, fn func(*job)) {
	for i := 0; i < n; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for j := range q.queue {
				q.leaveQueue(j)
				fn(j)
			}
		}()
	}
}

// fitDataset resolves a FitRequest's dataset into points and a response
// vector, from either inline CSV or explicit arrays.
func fitDataset(req *FitRequest) (points [][]float64, f []float64, metric string, err error) {
	switch {
	case req.CSV != "" && req.Points != nil:
		return nil, nil, "", fmt.Errorf("csv and points are mutually exclusive")
	case req.CSV != "":
		ds, err := mc.ReadCSV(strings.NewReader(req.CSV))
		if err != nil {
			return nil, nil, "", err
		}
		if ds.Len() == 0 {
			return nil, nil, "", fmt.Errorf("empty dataset")
		}
		if len(ds.Metrics) == 0 {
			return nil, nil, "", fmt.Errorf("dataset has no metric columns")
		}
		metric = req.Metric
		if metric == "" {
			metric = ds.Metrics[0]
		}
		f, err := ds.Metric(metric)
		if err != nil {
			return nil, nil, "", err
		}
		return ds.Points, f, metric, nil
	case len(req.Points) > 0:
		if len(req.Values) != len(req.Points) {
			return nil, nil, "", fmt.Errorf("%d points but %d values", len(req.Points), len(req.Values))
		}
		dim := len(req.Points[0])
		if dim == 0 {
			return nil, nil, "", fmt.Errorf("zero-dimensional points")
		}
		for i, p := range req.Points {
			if len(p) != dim {
				return nil, nil, "", fmt.Errorf("point %d has dimension %d, want %d", i, len(p), dim)
			}
		}
		metric = req.Metric
		if metric == "" {
			metric = "f"
		}
		return req.Points, req.Values, metric, nil
	default:
		return nil, nil, "", fmt.Errorf("no dataset: provide csv or points+values")
	}
}

// fitBasis builds the request's Hermite dictionary over dim variables.
func fitBasis(degree, dim int) (*basis.Basis, error) {
	switch {
	case degree == 1:
		return basis.Linear(dim), nil
	case degree == 2:
		return basis.Quadratic(dim), nil
	case degree >= 3 && degree <= 6:
		d := basis.Descriptor{Kind: basis.KindTotalDegree, Dim: dim, Degree: degree}
		if sz := d.Size(); sz < 0 || sz > 1<<26 {
			return nil, fmt.Errorf("degree-%d dictionary over %d variables is too large", degree, dim)
		}
		return d.Build()
	default:
		return nil, fmt.Errorf("unsupported degree %d (want 1..6)", degree)
	}
}

// jobRun is one worker execution of a job: the shared scaffolding's state
// a kind's run body works with.
type jobRun struct {
	s   *Server
	j   *job
	log *slog.Logger
	// span is the kind's work span (see jobRequest.workSpan) and spans its
	// per-stage children; both nil for a kind without one.
	span  *trace.Span
	spans *trace.SpanSet
}

// runJob executes one job of any kind end to end; it is the worker's unit
// of work and must never let a failure escape: panics anywhere in the
// kind's body are contained here (the incident is counted and the job
// fails, the worker survives), cancellation and deadline expiry land the
// job in canceled/timed_out, and everything else in failed.
func (s *Server) runJob(j *job) {
	if !j.begin() {
		return // canceled while queued
	}
	s.jobs.noteStarted(j)
	queueWait := j.started.Sub(j.submitted)
	s.metrics.observeQueueWait(queueWait)
	logger := s.log.With("job_id", j.id, "request_id", j.requestID)
	logger.Info(j.kind+" job started", append(j.req.appendStartAttrs(nil),
		"recovery_attempt", j.attempt,
		"queue_wait_ms", float64(queueWait.Microseconds())/1000.0)...)
	deadline := effectiveDeadline(j.req.limits(&s.cfg))
	ctx, cancelCtx := context.WithTimeout(j.ctx, deadline)
	defer cancelCtx()
	// Re-attach the job span: j.ctx is rooted in Background (the job
	// outlives its submitting request), so the trace rides on the job
	// struct, not the context chain.
	ctx = trace.ContextWithSpan(ctx, j.span)
	_, qwSpan := trace.Start(ctx, "queue.wait", trace.WithStart(j.submitted))
	qwSpan.End()
	r := &jobRun{s: s, j: j, log: logger}
	if name, attrs := j.req.workSpan(); name != "" {
		ctx = r.startWorkSpan(ctx, name, attrs)
	}

	finish := func(state, errMsg string, result jobResult) {
		r.spans.Close()
		if state != JobDone {
			r.span.SetStatus(trace.StatusError, errMsg)
		}
		r.span.End()
		// Terminal metrics and the journal record ride on job.finish via
		// the queue's noteTerminal.
		if !j.finish(state, errMsg, result) {
			return
		}
		dur := float64(j.finished.Sub(j.started).Microseconds()) / 1000.0
		if state == JobDone {
			logger.Info(j.kind+" job done", "state", state, "duration_ms", dur)
		} else {
			logger.Warn(j.kind+" job ended", "state", state, "error", errMsg, "duration_ms", dur)
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.countPanic()
			logger.Error(j.kind+" panicked", "panic", rec, "stack", string(debug.Stack()))
			finish(JobFailed, fmt.Sprintf("internal: %s panicked: %v (incident logged)", j.kind, rec), nil)
		}
	}()

	// Chaos hook: injected panics exercise the recovery above, injected
	// delays stall the job against its deadline — and a crash here leaves a
	// non-terminal journal trail for replay to re-run.
	err := faultinject.FireCtx(ctx, "server."+j.kind)
	if err == nil {
		err = ctx.Err()
	}
	var result jobResult
	if err == nil {
		result, err = j.req.run(ctx, r)
	}
	switch {
	case err == nil:
		finish(JobDone, "", result)
	case errors.Is(err, context.Canceled):
		finish(JobCanceled, err.Error(), nil)
	case errors.Is(err, context.DeadlineExceeded):
		finish(JobTimedOut, fmt.Sprintf("deadline %s exceeded: %v", deadline, err), nil)
	default:
		finish(JobFailed, err.Error(), nil)
	}
}

// startWorkSpan opens the kind's work span under the job span and installs
// the fit observer shared by fit and refine: it records solver telemetry on
// the job and turns each CV fold and the final refit into a child span of
// the work span, its attrs left at the last iteration's values.
func (r *jobRun) startWorkSpan(ctx context.Context, name string, attrs []trace.Attr) context.Context {
	ctx, r.span = trace.Start(ctx, name, trace.WithAttrs(attrs...))
	r.spans = trace.NewSpanSet(ctx)
	ctx = core.WithFitObserver(ctx, func(ev core.FitEvent) {
		r.j.addEvent(ev)
		r.spans.Observe(ev.Stage, trace.Int("iter", ev.Iter),
			trace.Int("active", ev.Active), trace.Float("residual", ev.Residual))
	})
	return core.WithFitWorkers(ctx, r.s.cfg.FitParallel)
}

// run executes a fit job's body: dataset → cross-validated sparse fit →
// registry publication.
func (req *FitRequest) run(ctx context.Context, r *jobRun) (jobResult, error) {
	s := r.s
	points, f, metric, err := fitDataset(req)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	b, err := fitBasis(req.Degree, len(points[0]))
	if err != nil {
		return nil, err
	}
	fitter, err := core.SolverByName(req.Solver)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Arm a natural-end checkpoint capture: the final refit's engine state is
	// persisted beside the published version so POST /v1/models/{name}/refine
	// can later continue this fit instead of restarting cold.
	plan := &core.CheckpointPlan{}
	cv, err := core.CrossValidateCtx(core.WithCheckpointPlan(ctx, plan), fitter, basis.AutoColMajor(b, points), f, req.Folds, req.MaxLambda)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	env := &core.Envelope{
		Model: cv.Model,
		Basis: b.Desc,
		Prov: core.Provenance{
			Solver:  fitter.Name(),
			Lambda:  cv.BestLambda,
			CVError: cv.ErrCurve[cv.BestLambda-1],
			Folds:   req.Folds,
			Samples: len(points),
			Metric:  metric,
		},
	}
	entry, err := s.registry.Put(req.Name, env)
	if err != nil {
		return nil, err
	}
	s.persistCheckpoint(r.log, entry, plan.CK, req.Solver, req.Folds, req.MaxLambda, metric, points, f)
	fitDur := time.Since(start)
	s.metrics.observeFit(fitDur, finalIterations(r.j), r.j.traceID)
	return &FitResult{
		Model:      modelInfo(entry),
		Lambda:     cv.BestLambda,
		CVError:    cv.ErrCurve[cv.BestLambda-1],
		FitSeconds: fitDur.Seconds(),
	}, nil
}

// finalIterations counts the final-refit path steps in the job's timeline —
// the per-job sample for the rsmd_fit_iterations histogram. Pipeline jobs
// prefix stages with the solver name ("lar/final"), so the suffix match
// covers both job kinds.
func finalIterations(j *job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, ev := range j.events {
		if ev.Stage == "final" || strings.HasSuffix(ev.Stage, "/final") {
			n++
		}
	}
	return n
}
