// Request middleware: the one place every HTTP response — success,
// validation error, load-shed, or one the mux writes itself (405, 404)
// — passes through. It owns the four per-request observability
// concerns so handlers stay pure:
//
//   - Request IDs: an inbound X-Request-ID is honored (after
//     sanitizing); otherwise one is minted from process-start time plus
//     an atomic sequence (no RNG — the repo's determinism lint forbids
//     non-test randomness). The ID is echoed on every response,
//     including 429/504 sheds, and threaded through the context for
//     spans and job logs.
//   - Spans: each request opens a fresh track on the env's tracer (nil
//     when the server is uninstrumented), annotated with method, path,
//     status and request ID.
//   - Response counts: the captured status bumps responses_{2xx,4xx,5xx}
//     once, after the handler returns (a stream's 200 when it ends).
//   - Access logs: one structured line per request on cfg.Log.
package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ramp/internal/obs"
)

// requestIDHeader is the inbound/outbound request-ID header.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds accepted inbound IDs; longer ones are replaced
// (not truncated, to avoid colliding distinct client IDs).
const maxRequestIDLen = 128

var (
	// reqEpoch + reqSeq make process-unique request IDs without randomness.
	reqEpoch = time.Now().UnixNano()
	reqSeq   atomic.Uint64
)

// nextRequestID mints a process-unique request ID.
func nextRequestID() string {
	return fmt.Sprintf("ramp-%x-%x", reqEpoch, reqSeq.Add(1))
}

// sanitizeRequestID reports whether an inbound ID is safe to echo:
// non-empty, bounded, and printable ASCII without spaces (header
// injection is already impossible through net/http, but log lines and
// trace attributes deserve the same hygiene).
func sanitizeRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// statusWriter captures the response status for the response counters,
// the span and the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers
// (/v1/metrics/stream) can push frames through the middleware wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps next with request-ID plumbing, a per-request span on
// the env's tracer, and an access log line.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		id := r.Header.Get(requestIDHeader)
		if !sanitizeRequestID(id) {
			id = nextRequestID()
		}
		// Set the echo header up front so every write path — including
		// writeJobError's 429/504/499 sheds — carries it.
		w.Header().Set(requestIDHeader, id)

		ctx := obs.WithRequestID(r.Context(), id)
		ctx, span := s.env.Trace.StartTrack(ctx, "serve.request")
		if span.Enabled() {
			span.Annotate(
				obs.Str("method", r.Method),
				obs.Str("path", r.URL.Path),
				obs.Str("request_id", id),
			)
		}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.ins.countResponse(sw.status)

		span.AnnotateInt("status", int64(sw.status))
		span.End()
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1e3,
		)
	})
}
