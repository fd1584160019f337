// GET /v1/metrics/stream — live windowed telemetry. Each subscriber
// gets its own clock: every window the handler snapshots the server's
// registry (merged with the pipeline registry), subtracts the previous
// snapshot, and pushes one frame carrying the delta. Frames are
// Server-Sent Events by default (curl-friendly, EventSource-compatible)
// or bare NDJSON with ?format=ndjson.
//
// The stream honors graceful shutdown: Serve closes the draining
// channel before http.Server.Shutdown, so every subscriber loop returns
// and Shutdown never hangs on a long-lived connection. Client
// disconnects end the loop through the request context.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ramp/internal/obs"
)

// Stream window clamps: fine enough for tests to run fast, coarse
// enough that a subscriber can never turn snapshotting into load.
const (
	streamMinWindow = 50 * time.Millisecond
	streamMaxWindow = time.Minute
)

// streamFrame is one pushed window: the metric deltas observed between
// Start and End, tagged with the subscriber's request ID so a client
// can correlate a stream against the server's access logs.
type streamFrame struct {
	Seq       int64        `json:"seq"`
	RequestID string       `json:"request_id"`
	Start     time.Time    `json:"start"`
	End       time.Time    `json:"end"`
	WindowSec float64      `json:"window_sec"`
	Delta     obs.Snapshot `json:"delta"`
}

// obsSnapshot merges the server's registry and, for an instrumented
// env, the pipeline registry into the one snapshot a frame's delta is
// taken from.
func (s *Server) obsSnapshot() obs.Snapshot {
	out := s.reg.Snapshot()
	if s.env.Metrics != nil {
		pipe := s.env.Metrics.Snapshot()
		for name, v := range pipe.Counters {
			out.Counters[name] = v
		}
		for name, v := range pipe.Gauges {
			out.Gauges[name] = v
		}
		for name, h := range pipe.Histograms {
			out.Histograms[name] = h
		}
	}
	return out
}

// parseStreamParams validates ?window, ?n and ?format.
func parseStreamParams(r *http.Request) (window time.Duration, limit int64, sse bool, err error) {
	window, sse = time.Second, true
	q := r.URL.Query()
	if v := q.Get("window"); v != "" {
		window, err = time.ParseDuration(v)
		if err != nil {
			return 0, 0, false, fmt.Errorf("bad window %q: %v", v, err)
		}
		if window < streamMinWindow {
			window = streamMinWindow
		}
		if window > streamMaxWindow {
			window = streamMaxWindow
		}
	}
	if v := q.Get("n"); v != "" {
		limit, err = strconv.ParseInt(v, 10, 64)
		if err != nil || limit < 0 {
			return 0, 0, false, fmt.Errorf("bad n %q (want a non-negative integer)", v)
		}
	}
	switch q.Get("format") {
	case "", "sse":
	case "ndjson":
		sse = false
	default:
		return 0, 0, false, fmt.Errorf("bad format %q (want sse or ndjson)", q.Get("format"))
	}
	return window, limit, sse, nil
}

func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsStream.Inc()
	window, limit, sse, err := parseStreamParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by transport")
		return
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// The middleware set the echo header before we got here; carrying it
	// in every frame correlates the stream with the access log.
	reqID := w.Header().Get(requestIDHeader)

	prev := s.obsSnapshot()
	prevAt := time.Now()
	tick := time.NewTicker(window)
	defer tick.Stop()
	enc := json.NewEncoder(w)
	for seq := int64(0); limit == 0 || seq < limit; seq++ {
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		case <-tick.C:
		}
		cur := s.obsSnapshot()
		now := time.Now()
		frame := streamFrame{
			Seq:       seq,
			RequestID: reqID,
			Start:     prevAt,
			End:       now,
			WindowSec: now.Sub(prevAt).Seconds(),
			Delta:     cur.Delta(prev),
		}
		prev, prevAt = cur, now
		if sse {
			if _, err := fmt.Fprint(w, "event: metrics\ndata: "); err != nil {
				return
			}
		}
		if err := enc.Encode(frame); err != nil {
			return
		}
		if sse {
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
		}
		flusher.Flush()
	}
}
