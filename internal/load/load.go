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
// server does: every request is timed from its arrival's due time, so a
// stall shows as latency on each arrival queued behind it, never as a
// gap in the schedule (the coordinated-omission mistake closed-loop
// harnesses make), and no arrival is dropped.
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
	MetricSent     = "load_requests_total" // arrivals handed to a sender
	MetricOK       = "load_ok_total"
	MetricShed     = "load_shed_total"     // server 429
	MetricTimeout  = "load_timeout_total"  // server 504
	MetricCanceled = "load_canceled_total" // server 499
	MetricHTTPErr  = "load_error_http_total"
	MetricNetErr   = "load_error_net_total"
	MetricLatency  = "load_latency_us" // response time from the due time
	MetricLate     = "load_late_us"    // send time minus the due time
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
	// Workers is the number of senders and the transport's connection
	// cap (default 32): at most this many requests are outstanding.
	Workers int
	// Timeout caps one request (default 60s).
	Timeout time.Duration
	// WindowEvery is the telemetry window length (default 1s; < 0
	// disables windowed telemetry).
	WindowEvery time.Duration
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
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.WindowEvery == 0 {
		c.WindowEvery = time.Second
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
	httpErr, netErr                   *obs.Counter
	sentRoute                         map[string]*obs.Counter
	lat, late                         *obs.Histogram
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
		lat:       reg.Histogram(MetricLatency),
		late:      reg.Histogram(MetricLate),
		sentRoute: make(map[string]*obs.Counter, 3),
		latRoute:  make(map[string]*obs.Histogram, 3),
	}
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		ins.sentRoute[route] = reg.Counter(MetricSent + "_" + route)
		ins.latRoute[route] = reg.Histogram(MetricLatency + "_" + route)
	}
	return ins
}

// Arrival is one request of a run: when it is due, as an offset from
// the run's start, and what it posts.
type Arrival struct {
	Due   time.Duration
	Route string // "evaluate", "sweep" or "fleet"
	Body  string // the JSON request body
}

// Arrivals yields a run's arrivals in due order until ok is false.
type Arrivals interface {
	Next() (a Arrival, ok bool)
}

// windowCap is how many of the latest windows a Runner retains for the
// SLO gate: ten minutes of 1 s windows.
const windowCap = 600

// Runner drives one load run. Construct with New; Run may be called
// once.
type Runner struct {
	cfg    Config
	reg    *obs.Registry
	ins    *instruments
	client *http.Client

	mu      sync.Mutex
	windows []obs.Snapshot // cumulative snapshots at the latest window boundaries, oldest first
	lastAt  time.Time      // when the newest of them was taken
	frames  []WindowFrame
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
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.Workers,
				MaxIdleConns:        cfg.Workers,
				MaxIdleConnsPerHost: cfg.Workers,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}, nil
}

// do sends one arrival, timing its lateness and its latency from its due
// time, and classifies the outcome. The latency histograms record every
// response; transport failures only count.
func (r *Runner) do(ctx context.Context, due time.Time, a Arrival) {
	r.ins.sent.Inc()
	r.ins.sentRoute[a.Route].Inc()
	r.ins.late.Observe(time.Since(due).Microseconds())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.BaseURL+"/v1/"+a.Route, strings.NewReader(a.Body))
	if err != nil {
		r.ins.netErr.Inc()
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(httpReq)
	if err != nil {
		r.ins.netErr.Inc()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	us := time.Since(due).Microseconds()
	r.ins.lat.Observe(us)
	r.ins.latRoute[a.Route].Observe(us)
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

// emitWindow records the registry's cumulative snapshot at a window
// boundary, keeping the last windowCap windows' worth. Every call after
// the first (the run-start baseline) closes a window: its frame is the
// newest snapshot minus the one before, retained for the report and
// written as an NDJSON line.
func (r *Runner) emitWindow(enc *json.Encoder) {
	cur, now := r.reg.Snapshot(), time.Now()
	r.mu.Lock()
	n := len(r.windows)
	var f WindowFrame
	if n > 0 {
		f = newFrame(int64(len(r.frames))+1, now.Sub(r.lastAt).Seconds(), cur.Delta(r.windows[n-1]))
		r.frames = append(r.frames, f)
	}
	r.windows = append(r.windows, cur)
	if len(r.windows) > windowCap+1 {
		r.windows = r.windows[1:]
	}
	r.lastAt = now
	r.mu.Unlock()
	if n > 0 && enc != nil {
		_ = enc.Encode(f) // a failed telemetry write never fails the run
	}
}

// Run sends the configured seeded stream — the draw WritePlan hashes —
// and returns the run's report. The context cancels the run early (the
// report covers what completed).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	return r.RunArrivals(ctx, newStream(r.cfg.Seed, r.cfg.Requests, r.cfg.Profile, r.cfg.Mix))
}

// RunArrivals is Run over a caller's arrival stream; the Config's Seed,
// Requests, Profile and Mix then only label the report.
func (r *Runner) RunArrivals(ctx context.Context, arr Arrivals) (*Report, error) {
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
		r.emitWindow(nil) // the baseline
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
	runErr := r.send(ctx, start, arr)
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

// send is the Runner's one send path: a single pacer sleeps until each
// arrival is due and hands it to whichever of the Workers senders is
// free; while none is, the arrivals it holds go out late.
func (r *Runner) send(ctx context.Context, start time.Time, arr Arrivals) error {
	work := make(chan Arrival)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				r.do(ctx, start.Add(a.Due), a)
			}
		}()
	}
	defer wg.Wait()
	defer close(work)
	for a, ok := arr.Next(); ok; a, ok = arr.Next() {
		if err := sleepUntil(ctx, start.Add(a.Due)); err != nil {
			return err
		}
		select {
		case work <- a:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// napSlice bounds one nap of the pacer, so a canceled run stops within
// about this long however far away its next arrival is due.
const napSlice = 10 * time.Millisecond

// sleepUntil blocks until t or until ctx ends, in naps of at most
// napSlice. It never returns nil before t, so no arrival is sent early.
func sleepUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		nap(min(d, napSlice))
	}
}

// serverMetrics is the slice of rampserve's /metrics JSON document the
// reconciliation reads.
type serverMetrics struct {
	RequestsTotal map[string]int64 `json:"requests_total"`
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
