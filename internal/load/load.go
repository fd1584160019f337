// Package load is rampserve's load-generation harness: a deterministic
// open-loop client that drives the service's three POST routes at a
// seeded arrival schedule, records client-side latency and outcome
// tallies into internal/obs instruments, streams per-window NDJSON
// telemetry, and reconciles what it saw against the server's own
// /metrics counters — the measurement substrate every scaling change to
// the serving layer is judged with (and the in-service telemetry loop
// the paper's dynamic reliability management argument presumes).
//
// Open loop means the arrival process does not slow down when the
// server does: arrivals keep their scheduled times and only a bounded
// in-flight budget protects the client itself (arrivals that find the
// budget exhausted are counted as dropped, never silently stretched —
// the coordinated-omission mistake closed-loop harnesses make). The
// closed-loop fallback (Config.Closed) exists for saturation probing,
// where "as fast as the server allows" is the point.
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"ramp/internal/obs"
)

// Client-side instrument names (all in the harness's own registry —
// the load client never shares a registry with the server it measures).
const (
	// MetricSent counts scheduled arrivals — including dropped ones; an
	// open-loop arrival happens whether or not the client can carry it.
	MetricSent     = "load_requests_total"
	MetricOK       = "load_ok_total"
	MetricShed     = "load_shed_total"     // server 429
	MetricTimeout  = "load_timeout_total"  // server 504
	MetricCanceled = "load_canceled_total" // server 499
	MetricHTTPErr  = "load_error_http_total"
	MetricNetErr   = "load_error_net_total"
	MetricDropped  = "load_dropped_total" // open-loop in-flight budget hit
	MetricLatency  = "load_latency_us"
)

// Config tunes one load run. Zero fields take the documented defaults.
type Config struct {
	// BaseURL is the server under test (e.g. http://127.0.0.1:8080).
	BaseURL string
	// Seed drives both the arrival schedule and the request sampler.
	Seed int64
	// Requests is the total number of arrivals to schedule.
	Requests int
	// Profile shapes the arrival schedule.
	Profile Profile
	// Mix weights the three routes.
	Mix Mix
	// MaxInflight bounds concurrently outstanding requests in open-loop
	// mode (default 256); arrivals beyond it are counted dropped.
	MaxInflight int
	// Closed switches to the closed-loop fallback: Workers goroutines
	// issue requests back to back, ignoring the schedule's timing (the
	// schedule still supplies the deterministic request stream).
	Closed bool
	// Workers is the closed-loop concurrency (default 32).
	Workers int
	// Timeout caps one request (default 60s).
	Timeout time.Duration
	// WindowEvery is the telemetry window length (default 1s; < 0
	// disables windowed telemetry).
	WindowEvery time.Duration
	// WindowCap bounds retained windows for the SLO gate and the report
	// (default 600 — ten minutes of 1 s windows).
	WindowCap int
	// NDJSON, when non-nil, receives one JSON line per window.
	NDJSON io.Writer
	// Log receives progress diagnostics (nil = discard).
	Log *slog.Logger
	// Registry, when non-nil, hosts the harness's instruments (rampload
	// passes the obs runtime registry so -stats prints them); it must be
	// fresh — the whole-run report reads absolute counter values.
	Registry *obs.Registry
}

func (c *Config) normalize() error {
	if c.BaseURL == "" {
		return errors.New("load: BaseURL required")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Requests <= 0 {
		return errors.New("load: Requests must be positive")
	}
	if c.Profile.Kind == "" {
		return errors.New("load: Profile required")
	}
	if c.Mix.Evaluate+c.Mix.Sweep+c.Mix.Fleet <= 0 {
		return errors.New("load: Mix must have positive total weight")
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.WindowEvery == 0 {
		c.WindowEvery = time.Second
	}
	if c.WindowCap <= 0 {
		c.WindowCap = 600
	}
	if c.Log == nil {
		c.Log = obs.Discard()
	}
	return nil
}

// instruments caches resolved registry pointers so the per-request path
// never takes the registry lock.
type instruments struct {
	sent, ok, shed, timeout, canceled *obs.Counter
	httpErr, netErr, dropped          *obs.Counter
	sentRoute                         map[string]*obs.Counter
	lat                               *obs.Histogram
	latRoute                          map[string]*obs.Histogram
}

func newInstruments(reg *obs.Registry) *instruments {
	ins := &instruments{
		sent:      reg.Counter(MetricSent),
		ok:        reg.Counter(MetricOK),
		shed:      reg.Counter(MetricShed),
		timeout:   reg.Counter(MetricTimeout),
		canceled:  reg.Counter(MetricCanceled),
		httpErr:   reg.Counter(MetricHTTPErr),
		netErr:    reg.Counter(MetricNetErr),
		dropped:   reg.Counter(MetricDropped),
		lat:       reg.Histogram(MetricLatency),
		sentRoute: make(map[string]*obs.Counter, 3),
		latRoute:  make(map[string]*obs.Histogram, 3),
	}
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		ins.sentRoute[route] = reg.Counter(MetricSent + "_" + route)
		ins.latRoute[route] = reg.Histogram(MetricLatency + "_" + route)
	}
	return ins
}

// Runner drives one load run. Construct with New; Run may be called
// once.
type Runner struct {
	cfg    Config
	reg    *obs.Registry
	ins    *instruments
	win    *obs.Window
	client *http.Client

	mu     sync.Mutex
	frames []WindowFrame
}

// New validates cfg and builds a Runner.
func New(cfg Config) (*Runner, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Runner{
		cfg: cfg,
		reg: reg,
		ins: newInstruments(reg),
		win: obs.NewWindow(cfg.WindowCap, nil),
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.MaxInflight * 2,
				MaxIdleConnsPerHost: cfg.MaxInflight * 2,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}, nil
}

// do issues one request and classifies the outcome. The latency
// histograms record every request that produced an HTTP response;
// transport failures only count. The sent counters are bumped at
// arrival time by the dispatchers (dropped arrivals count as sent —
// open loop means the arrival happened whether or not the client could
// carry it).
func (r *Runner) do(ctx context.Context, req request) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.BaseURL+"/v1/"+req.route, strings.NewReader(req.body))
	if err != nil {
		r.ins.netErr.Inc()
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(httpReq)
	if err != nil {
		r.ins.netErr.Inc()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	us := time.Since(start).Microseconds()
	r.ins.lat.Observe(us)
	r.ins.latRoute[req.route].Observe(us)
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		r.ins.ok.Inc()
	case resp.StatusCode == http.StatusTooManyRequests:
		r.ins.shed.Inc()
	case resp.StatusCode == http.StatusGatewayTimeout:
		r.ins.timeout.Inc()
	case resp.StatusCode == 499:
		r.ins.canceled.Inc()
	default:
		r.ins.httpErr.Inc()
	}
}

// emitWindow advances the telemetry window, retains the frame and
// writes the NDJSON line.
func (r *Runner) emitWindow(enc *json.Encoder) {
	d := r.win.Observe(r.reg)
	f := frameFromDelta(d)
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
	if enc != nil {
		_ = enc.Encode(f) // a failed telemetry write never fails the run
	}
}

// Run executes the configured load run and returns its report. The
// context cancels the run early (the report covers what completed).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	before, beforeErr := fetchServerMetrics(ctx, r.client, r.cfg.BaseURL)
	if beforeErr != nil {
		r.cfg.Log.Warn("server /metrics baseline unavailable; reconciliation disabled", "err", beforeErr)
	}

	var enc *json.Encoder
	if r.cfg.NDJSON != nil {
		enc = json.NewEncoder(r.cfg.NDJSON)
	}
	// The window ticker goroutine exits via stopWin; the final partial
	// window is flushed after the senders drain.
	var winWG sync.WaitGroup
	stopWin := make(chan struct{})
	if r.cfg.WindowEvery > 0 {
		r.win.Prime(r.reg.Snapshot())
		tick := time.NewTicker(r.cfg.WindowEvery)
		winWG.Add(1)
		go func() {
			defer winWG.Done()
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					r.emitWindow(enc)
				case <-stopWin:
					return
				}
			}
		}()
	}

	start := time.Now()
	var runErr error
	if r.cfg.Closed {
		runErr = r.runClosed(ctx)
	} else {
		runErr = r.runOpen(ctx)
	}
	wall := time.Since(start)

	close(stopWin)
	winWG.Wait()
	if r.cfg.WindowEvery > 0 {
		r.emitWindow(enc) // final partial window
	}

	after, afterErr := fetchServerMetrics(ctx, r.client, r.cfg.BaseURL)
	rep := r.buildReport(wall, before, after, beforeErr == nil && afterErr == nil)
	// A canceled or deadline-bounded run still reports what completed.
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return rep, runErr
	}
	return rep, nil
}

// runOpen paces arrivals on the schedule, never letting server slowness
// stretch the arrival process. A sender goroutine per admitted arrival,
// bounded by the in-flight budget.
func (r *Runner) runOpen(ctx context.Context) error {
	sched := newSchedule(r.cfg.Profile, r.cfg.Seed)
	smp := newSampler(r.cfg.Mix, r.cfg.Seed, nil)
	sem := make(chan struct{}, r.cfg.MaxInflight)
	var wg sync.WaitGroup
	defer wg.Wait()

	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for i := 0; i < r.cfg.Requests; i++ {
		off := sched.next()
		req := smp.sample()
		r.ins.sent.Inc()
		r.ins.sentRoute[req.route].Inc()
		// Sleep until the scheduled arrival; if the client is behind,
		// fire immediately (open loop catches up, it never re-times).
		if wait := time.Until(start.Add(off)); wait > 200*time.Microsecond {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
				return ctx.Err()
			}
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.do(ctx, req)
			}()
		default:
			// In-flight budget exhausted: the arrival happened (open
			// loop!) but the client refuses to stack more connections.
			r.ins.dropped.Inc()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// runClosed issues the same deterministic request stream from Workers
// back-to-back loops (saturation probing; timing is server-paced).
func (r *Runner) runClosed(ctx context.Context) error {
	smp := newSampler(r.cfg.Mix, r.cfg.Seed, nil)
	work := make(chan request, r.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				r.do(ctx, req)
			}
		}()
	}
	var err error
fill:
	for i := 0; i < r.cfg.Requests; i++ {
		req := smp.sample()
		select {
		case work <- req:
			r.ins.sent.Inc()
			r.ins.sentRoute[req.route].Inc()
		case <-ctx.Done():
			err = ctx.Err()
			break fill
		}
	}
	close(work)
	wg.Wait()
	return err
}

// serverMetrics is the slice of rampserve's /metrics JSON document the
// reconciliation reads.
type serverMetrics struct {
	RequestsTotal map[string]int64 `json:"requests_total"`
	ShedTotal     int64            `json:"shed_total"`
	TimeoutTotal  int64            `json:"timeout_total"`
}

func fetchServerMetrics(ctx context.Context, client *http.Client, baseURL string) (serverMetrics, error) {
	var m serverMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("load: GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("load: decode /metrics: %v", err)
	}
	return m, nil
}
