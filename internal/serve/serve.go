// Package serve exposes the evaluation pipeline as a long-running HTTP
// service: the first piece of the codebase that runs as a resident
// system rather than a batch CLI. One shared exp.Env backs every
// request, so the content-keyed result cache warms monotonically — the
// service answers repeated design-space queries (the way EM-aware
// design rules are consulted at design time) from memory, and
// concurrent identical requests collapse onto one simulation via the
// cache's singleflight.
//
// Endpoints:
//
//	POST /v1/evaluate  one (app, configuration, T_qual) evaluation
//	POST /v1/sweep     a DRM adaptation-space sweep with per-T_qual selection
//	POST /v1/fleet     a fleet-scale Monte Carlo lifetime simulation
//	GET  /v1/healthz   liveness + cache occupancy
//	GET  /metrics      expvar-style counters and latency histograms (JSON)
//	GET  /debug/pprof  live pprof (internal/profiling.RegisterHTTP)
//
// Concurrency model: requests are validated on the handler goroutine,
// then admitted to a bounded pool (workers + queue depth); admission
// failure is an immediate 429. Admitted jobs carry a per-request
// context deadline that threads all the way into the simulator's epoch
// loop, so abandoned requests stop burning simulation time. Shutdown is
// graceful: the listener closes, in-flight requests finish (bounded by
// the drain timeout), then Serve returns.
package serve

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/profiling"
)

// Config tunes the service. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Workers bounds concurrently running evaluations (minimum 1).
	Workers int
	// QueueDepth bounds admitted-but-waiting jobs; admission beyond
	// Workers+QueueDepth sheds with 429.
	QueueDepth int
	// RequestTimeout caps one job's wall-clock time (0 = no deadline;
	// the client's connection context still cancels).
	RequestTimeout time.Duration
	// DrainTimeout caps graceful shutdown: how long in-flight requests
	// get to finish after SIGTERM before the server gives up on them.
	DrainTimeout time.Duration
	// FreqStepHz is the default DVS grid for sweeps that don't set one.
	FreqStepHz float64
	// EnablePprof mounts /debug/pprof/ handlers.
	EnablePprof bool
	// Log receives per-request access logs and server lifecycle events
	// (nil = discard). Request logs carry the request ID, method, path,
	// status and duration.
	Log *slog.Logger
}

// DefaultConfig returns production-leaning defaults: one worker per
// core (the exp pool parallelizes internally per job, so a small worker
// count already saturates the machine), a shallow queue, and deadlines
// generous enough for a full ArchDVS sweep.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8080",
		Workers:        4,
		QueueDepth:     64,
		RequestTimeout: 5 * time.Minute,
		DrainTimeout:   30 * time.Second,
		FreqStepHz:     config.DefaultFreqStepHz,
		EnablePprof:    true,
	}
}

// Server is the rampserve HTTP service. Create with New; it is safe for
// concurrent use and for one Serve call.
type Server struct {
	cfg     Config
	env     *exp.Env
	pool    *pool
	reg     *obs.Registry // the server's own metrics; env.Metrics is the pipeline's
	ins     *instruments  // resolved from reg
	start   time.Time
	fleet   fleetCache
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request middleware
	log     *slog.Logger

	// draining closes when graceful shutdown begins, so long-lived
	// handlers (/v1/metrics/stream subscribers) return promptly and
	// http.Server.Shutdown never waits on them.
	draining chan struct{}
}

// New builds a Server over env (which owns the evaluation cache; pass a
// long-lived Env so the cache survives across requests). If env is
// instrumented (exp.Env.Instrument), every request gets a span on the
// env's tracer and /metrics exposes the pipeline registry alongside the
// server's own counters.
func New(env *exp.Env, cfg Config) *Server {
	reg := obs.NewRegistry()
	ins := newInstruments(reg)
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	s := &Server{
		cfg:      cfg,
		env:      env,
		pool:     newPool(cfg.Workers, cfg.QueueDepth, ins),
		reg:      reg,
		ins:      ins,
		start:    time.Now(),
		mux:      http.NewServeMux(),
		log:      log,
		draining: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/fleet", s.handleFleet)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/metrics/stream", s.handleMetricsStream)
	if cfg.EnablePprof {
		profiling.RegisterHTTP(s.mux)
	}
	s.handler = s.middleware(s.mux)
	return s
}

// Handler returns the routing handler wrapped in the request middleware
// — request-ID plumbing, per-request spans and access logs (for
// httptest and embedding).
//
//rampvet:ignore unreached -- the httptest mount of the serve, load and obs-coverage tests and of BenchmarkServeEvaluateHandler
func (s *Server) Handler() http.Handler { return s.handler }

// Serve runs the HTTP service on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, let in-flight requests (and their
// queued jobs) finish within DrainTimeout, and return nil on a clean
// drain. It owns ln.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.handler}

	// The goroutine terminates exactly when Serve returns — on listener
	// failure or on the Shutdown below — handing its result off through
	// the buffered channel either way (goroleak: the send is its escape
	// route).
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener failed on its own; nothing to drain.
		return err
	case <-ctx.Done():
	}

	// Unblock stream subscribers before Shutdown starts waiting on
	// in-flight connections; otherwise an open stream would pin the
	// drain until its client disconnected.
	close(s.draining)

	drainCtx := context.Background()
	var cancel context.CancelFunc = func() {}
	if s.cfg.DrainTimeout > 0 {
		drainCtx, cancel = context.WithTimeout(drainCtx, s.cfg.DrainTimeout)
	}
	defer cancel()
	err := hs.Shutdown(drainCtx)
	if serveRes := <-serveErr; serveRes != nil && !errors.Is(serveRes, http.ErrServerClosed) && err == nil {
		err = serveRes
	}
	return err
}
