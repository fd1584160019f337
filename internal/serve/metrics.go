package serve

import (
	"net/http"
	"strings"
	"time"

	"ramp/internal/obs"
)

// instruments are the server's own metrics, resolved once from its
// registry: the handlers and the pool update them through these
// pointers, so no request takes the registry's lock. The registry
// names are the ones /v1/metrics/stream publishes; /metrics groups the
// requests_, responses_ and latency_us_ families under one key each
// (DESIGN.md §8).
type instruments struct {
	requestsEvaluate *obs.Counter
	requestsSweep    *obs.Counter
	requestsFleet    *obs.Counter
	requestsHealthz  *obs.Counter
	requestsMetrics  *obs.Counter
	requestsStream   *obs.Counter

	responses2xx *obs.Counter
	responses4xx *obs.Counter
	responses5xx *obs.Counter
	shed         *obs.Counter // queue-full 429s (subset of responses4xx)
	timeouts     *obs.Counter // deadline-exceeded 504s (subset of responses5xx)

	inflight *obs.Gauge // jobs currently holding a worker slot
	queued   *obs.Gauge // jobs admitted but waiting for a slot

	// Latencies in microseconds.
	latQueueWait *obs.Histogram // admission → worker slot acquired
	latEvaluate  *obs.Histogram // /v1/evaluate compute time
	latSweep     *obs.Histogram // /v1/sweep compute time (sweep + all selects)
	latFleet     *obs.Histogram // /v1/fleet compute time (evaluate + Monte Carlo)
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		requestsEvaluate: reg.Counter("requests_evaluate"),
		requestsSweep:    reg.Counter("requests_sweep"),
		requestsFleet:    reg.Counter("requests_fleet"),
		requestsHealthz:  reg.Counter("requests_healthz"),
		requestsMetrics:  reg.Counter("requests_metrics"),
		requestsStream:   reg.Counter("requests_stream"),
		responses2xx:     reg.Counter("responses_2xx"),
		responses4xx:     reg.Counter("responses_4xx"),
		responses5xx:     reg.Counter("responses_5xx"),
		shed:             reg.Counter("shed_total"),
		timeouts:         reg.Counter("timeout_total"),
		inflight:         reg.Gauge("inflight_jobs"),
		queued:           reg.Gauge("queued_jobs"),
		latQueueWait:     reg.Histogram("latency_us_queue_wait"),
		latEvaluate:      reg.Histogram("latency_us_evaluate"),
		latSweep:         reg.Histogram("latency_us_sweep"),
		latFleet:         reg.Histogram("latency_us_fleet"),
	}
}

func (in *instruments) countResponse(status int) {
	switch {
	case status >= 500:
		in.responses5xx.Inc()
	case status >= 400:
		in.responses4xx.Inc()
	default:
		in.responses2xx.Inc()
	}
}

// labeled returns the entries of m whose names start with prefix, keyed
// by the rest of the name: the route or class label of one family.
func labeled[V any](m map[string]V, prefix string) map[string]V {
	out := make(map[string]V)
	for name, v := range m {
		if label, ok := strings.CutPrefix(name, prefix); ok {
			out[label] = v
		}
	}
	return out
}

// histSnapshot is the JSON form of one latency histogram: obs's
// cumulative le-keyed buckets plus interpolated quantile estimates
// (obs.HistogramSnapshot.Quantile).
type histSnapshot struct {
	Count   int64            `json:"count"`
	SumUS   int64            `json:"sum_us"`
	P50US   float64          `json:"p50_us,omitempty"`
	P95US   float64          `json:"p95_us,omitempty"`
	P99US   float64          `json:"p99_us,omitempty"`
	Buckets map[string]int64 `json:"buckets_le_us,omitempty"`
}

// cacheCounters is the slice of exp.CacheStats surfaced in /metrics.
type cacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// metricsSnapshot is the /metrics JSON document. Names are stable API:
// DESIGN.md §8 documents them.
type metricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	RequestsTotal map[string]int64 `json:"requests_total"`
	Responses     map[string]int64 `json:"responses_total"`
	ShedTotal     int64            `json:"shed_total"`
	TimeoutTotal  int64            `json:"timeout_total"`

	InflightJobs int64 `json:"inflight_jobs"`
	QueuedJobs   int64 `json:"queued_jobs"`

	Cache cacheCounters `json:"cache"`

	LatencyUS map[string]histSnapshot `json:"latency_us"`

	// Pipeline mirrors the env's obs registry when the server was built
	// over an instrumented environment; omitted otherwise, so the JSON
	// document is unchanged for uninstrumented servers.
	Pipeline *obs.Snapshot `json:"pipeline,omitempty"`
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	snap := s.reg.Snapshot()
	cs := s.env.CacheStats()
	out := metricsSnapshot{
		UptimeSec:     time.Since(s.start).Seconds(),
		RequestsTotal: labeled(snap.Counters, "requests_"),
		Responses:     labeled(snap.Counters, "responses_"),
		ShedTotal:     snap.Counters["shed_total"],
		TimeoutTotal:  snap.Counters["timeout_total"],
		InflightJobs:  snap.Gauges["inflight_jobs"],
		QueuedJobs:    snap.Gauges["queued_jobs"],
		Cache:         cacheCounters{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries},
		LatencyUS:     make(map[string]histSnapshot),
	}
	for route, h := range labeled(snap.Histograms, "latency_us_") {
		hs := histSnapshot{Count: h.Count, SumUS: h.Sum, Buckets: h.Buckets}
		if h.Count > 0 { // Quantile is NaN on an empty histogram
			hs.P50US, hs.P95US, hs.P99US = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		}
		out.LatencyUS[route] = hs
	}
	if s.env.Metrics != nil {
		pipeline := s.env.Metrics.Snapshot()
		out.Pipeline = &pipeline
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.ins.requestsMetrics.Inc()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}
