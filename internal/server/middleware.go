package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// trace is the outermost per-route middleware: it assigns or honors the
// X-Request-Id header, stamps it on the response and on a request-scoped
// slog.Logger carried in the context, records the route's latency and
// status in /metrics, and emits one access-log line per request (Debug for
// success, Warn for client errors, Error for server errors). Handlers and
// inner middleware retrieve the logger with obs.Log(r.Context()).
func (s *Server) trace(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)

		logger := s.log.With("request_id", id, "route", route)
		ctx := r.Context()
		ctx, span := s.traces.StartRoot(ctx, route, trace.WithAttrs(
			trace.String("method", r.Method), trace.String("path", r.URL.Path),
			trace.String("request_id", id)))
		if span != nil {
			logger = logger.With("trace_id", span.TraceID())
		}
		ctx = obs.WithRequestID(obs.WithLogger(ctx, logger), id)
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.observe(route, rec.status, elapsed, span.TraceID())
		span.SetAttr("status", rec.status)
		if rec.status >= 500 {
			span.SetStatus(trace.StatusError, http.StatusText(rec.status))
		}
		span.End()

		level := slogLevelForStatus(rec.status)
		if slow := s.traces.SlowThreshold(); slow > 0 && elapsed >= slow && level < slog.LevelWarn {
			// Slow-request escalation: surface the trace ID at Warn so the
			// dashboard → trace → log-line path works without Debug logs.
			level = slog.LevelWarn
		}
		logger.Log(ctx, level, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(elapsed.Microseconds())/1000.0,
		)
	}
}

// slogLevelForStatus maps a response status to an access-log level.
func slogLevelForStatus(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelDebug
	}
}

// protect wraps a handler in the per-route robustness envelope: a request
// deadline on the context (handlers and faultinject hooks observe it through
// r.Context()) and panic isolation. A recovered panic becomes a 500 with the
// stack logged and the incident counted in /metrics — never a crashed
// daemon. protect sits inside trace so the synthesized 500 is visible in the
// route's error counters and the panic log line carries the request ID.
func (s *Server) protect(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.protectWith(route, h, true)
}

// protectStreaming is protect without the request deadline: long-lived
// streaming responses (SSE job tailing) must be allowed to outlive the
// RequestTimeout that bounds ordinary request/response handlers. Panic
// isolation still applies.
func (s *Server) protectStreaming(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.protectWith(route, h, false)
}

func (s *Server) protectWith(route string, h http.HandlerFunc, deadline bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if deadline && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity
				panic(rec) // net/http's own abort protocol; not an incident
			}
			s.metrics.add(panicsRecovered, 1)
			obs.Log(r.Context()).Error("panic recovered",
				"where", route, "panic", rec, "stack", string(debug.Stack()))
			// Best-effort: if the handler already wrote a body this write
			// fails silently, but the connection still terminates cleanly.
			writeErr(w, http.StatusInternalServerError, "internal error: handler panicked (incident logged)")
		}()
		h(w, r)
	}
}

// shed rejects the request with 503 + Retry-After when the daemon is
// saturated, so interactive traffic fails fast instead of queuing behind a
// full fit backlog. Returns true when the request was shed.
func (s *Server) shed(w http.ResponseWriter) bool {
	if !s.jobs.saturated() {
		return false
	}
	s.metrics.add(requestsShed, 1)
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "overloaded: fit queue saturated, retry shortly")
	return true
}
