package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Per-request observability: every route is wrapped by instrument, which
// assigns (or honors) a request ID, echoes it as X-Request-ID, captures the
// response status, and — when a logger or registry is configured — emits
// one structured request log line and the per-endpoint latency/status
// metrics. Handlers annotate the request with the client's optional session
// label (noteSession) so the log line can carry both IDs.

// reqMeta is the per-request context payload. One goroutine owns a request
// end to end, so plain fields suffice: handlers write session before the
// middleware reads it after they return.
type reqMeta struct {
	id      string
	session string
}

type reqMetaKey struct{}

// requestID returns the request's assigned ID ("" outside instrumented
// handlers, e.g. in direct unit-test calls).
func requestID(r *http.Request) string {
	if m, ok := r.Context().Value(reqMetaKey{}).(*reqMeta); ok {
		return m.id
	}
	return ""
}

// maxClientRequestID bounds how long a client-supplied X-Request-ID may be
// before the server mints its own instead, and how long a session label may
// be at all (log lines stay bounded).
const maxClientRequestID = 64

// noteSession records the request body's optional session label for the
// request log. The label is opaque: nothing else reads it. One longer than
// maxClientRequestID is an error, which handlers answer with a 400.
func noteSession(r *http.Request, session string) error {
	if len(session) > maxClientRequestID {
		return fmt.Errorf("session label is %d bytes; the limit is %d", len(session), maxClientRequestID)
	}
	if m, ok := r.Context().Value(reqMetaKey{}).(*reqMeta); ok {
		m.session = session
	}
	return nil
}

// statusWriter captures the response status for metrics and logging. It
// passes Flush through to the underlying writer — the NDJSON stream
// type-asserts http.Flusher, so dropping it would silently break
// progressive delivery.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with the request-scoped observability: request
// ID, status capture, per-endpoint metrics (latency histogram, status
// counter, in-flight gauge) and the structured request log line. endpoint
// is the metrics label — the route pattern, never the raw URL path, so the
// label set stays bounded.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := &reqMeta{id: r.Header.Get("X-Request-ID")}
		if m.id == "" || len(m.id) > maxClientRequestID {
			m.id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", m.id)
		r = r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, m))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if s.metrics != nil {
			s.metrics.inFlight.Add(1)
		}
		h(sw, r)
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if s.metrics != nil {
			s.metrics.inFlight.Add(-1)
			s.metrics.requests.With(endpoint, strconv.Itoa(status)).Inc()
			s.metrics.reqLatency.With(endpoint).Observe(dur.Seconds())
		}
		if s.log != nil {
			lvl := slog.LevelInfo
			switch {
			case status >= 500:
				lvl = slog.LevelError
			case status >= 400:
				lvl = slog.LevelWarn
			}
			s.log.LogAttrs(r.Context(), lvl, "request",
				slog.String("request_id", m.id),
				slog.String("session", m.session),
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Int("status", status),
				slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
			)
		}
	}
}
