// Report assembly for a load run: per-window NDJSON frames, the final
// summary table, client/server reconciliation and the deterministic
// -plan render that loadcheck.sh byte-compares.
package load

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"ramp/internal/obs"
	"ramp/internal/slo"
)

// WindowFrame is one NDJSON telemetry line: the client-side counter and
// latency deltas for a single window.
type WindowFrame struct {
	Seq     int64   `json:"seq"`
	Seconds float64 `json:"seconds"`

	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Timeout  int64 `json:"timeout"`
	Canceled int64 `json:"canceled"`
	HTTPErr  int64 `json:"http_err"`
	NetErr   int64 `json:"net_err"`

	RPS   float64 `json:"rps"`
	P50US float64 `json:"p50_us"`
	P95US float64 `json:"p95_us"`
	P99US float64 `json:"p99_us"`
}

// newFrame builds window seq's frame from its length and its delta.
func newFrame(seq int64, seconds float64, d obs.Snapshot) WindowFrame {
	c := d.Counters
	f := WindowFrame{
		Seq:     seq,
		Seconds: seconds,

		Sent:     c[MetricSent],
		OK:       c[MetricOK],
		Shed:     c[MetricShed],
		Timeout:  c[MetricTimeout],
		Canceled: c[MetricCanceled],
		HTTPErr:  c[MetricHTTPErr],
		NetErr:   c[MetricNetErr],
	}
	if f.Seconds > 0 {
		f.RPS = float64(f.Sent) / f.Seconds
	}
	if h := d.Histograms[MetricLatency]; h.Count > 0 {
		f.P50US = h.Quantile(0.50)
		f.P95US = h.Quantile(0.95)
		f.P99US = h.Quantile(0.99)
	}
	return f
}

// LatencyStats summarizes one latency histogram for the report.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

func latencyStats(h obs.HistogramSnapshot) LatencyStats {
	if h.Count == 0 {
		return LatencyStats{}
	}
	return LatencyStats{
		Count:  h.Count,
		MeanUS: float64(h.Sum) / float64(h.Count),
		P50US:  h.Quantile(0.50),
		P95US:  h.Quantile(0.95),
		P99US:  h.Quantile(0.99),
	}
}

// Reconciliation cross-checks the client's view against the server's
// /metrics counters: every request the client believes reached the wire
// (sent − transport errors) must show up in the server's
// route counters, within tolerance. A mismatch means one side is
// miscounting — exactly the bug a telemetry harness exists to catch.
type Reconciliation struct {
	// Enabled is false when the server's /metrics was unreachable at
	// either end of the run (the check is skipped, not failed).
	Enabled bool `json:"enabled"`

	ClientReached int64 `json:"client_reached"`
	ServerHandled int64 `json:"server_handled"`
	Diff          int64 `json:"diff"`

	TolerancePct float64 `json:"tolerance_pct"`
	Pass         bool    `json:"pass"`
}

// ReconcileTolerancePct is the default allowed divergence. Transport
// races (a client-side timeout whose request the server still served)
// make exact equality too strict for large runs.
const ReconcileTolerancePct = 0.1

// Report is one load run's full result — the document LOAD_<n>.json
// serializes next to the BENCH_<n>.json lineage.
type Report struct {
	Target   string `json:"target"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`
	Profile  string `json:"profile"`
	Mix      string `json:"mix"`

	WallSeconds float64 `json:"wall_seconds"`
	AchievedRPS float64 `json:"achieved_rps"`

	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Timeout  int64 `json:"timeout"`
	Canceled int64 `json:"canceled"`
	HTTPErr  int64 `json:"http_err"`
	NetErr   int64 `json:"net_err"`

	// Latency is response time from each arrival's due time; Late is how
	// long after its due time each arrival was sent.
	Latency      LatencyStats            `json:"latency"`
	LatencyRoute map[string]LatencyStats `json:"latency_by_route"`
	Late         LatencyStats            `json:"late"`

	Reconcile Reconciliation `json:"reconcile"`

	Windows []WindowFrame `json:"windows"`

	// SLO holds the objective verdicts when rampload ran with -slo.
	SLO []slo.Result `json:"slo,omitempty"`
}

func (r *Runner) buildReport(wall time.Duration, before, after serverMetrics, reconOK bool) *Report {
	s := r.reg.Snapshot()
	c := s.Counters
	rep := &Report{
		Target:   r.cfg.BaseURL,
		Seed:     r.cfg.Seed,
		Requests: r.cfg.Requests,
		Profile:  r.cfg.Profile.String(),
		Mix:      r.cfg.Mix.String(),

		WallSeconds: wall.Seconds(),

		Sent:     c[MetricSent],
		OK:       c[MetricOK],
		Shed:     c[MetricShed],
		Timeout:  c[MetricTimeout],
		Canceled: c[MetricCanceled],
		HTTPErr:  c[MetricHTTPErr],
		NetErr:   c[MetricNetErr],

		Latency:      latencyStats(s.Histograms[MetricLatency]),
		LatencyRoute: make(map[string]LatencyStats, 3),
		Late:         latencyStats(s.Histograms[MetricLate]),
	}
	if rep.WallSeconds > 0 {
		rep.AchievedRPS = float64(rep.Sent) / rep.WallSeconds
	}
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		rep.LatencyRoute[route] = latencyStats(s.Histograms[MetricLatency+"_"+route])
	}

	r.mu.Lock()
	rep.Windows = append([]WindowFrame(nil), r.frames...)
	r.mu.Unlock()

	rec := Reconciliation{Enabled: reconOK, TolerancePct: ReconcileTolerancePct}
	rec.ClientReached = rep.Sent - rep.NetErr
	if reconOK {
		for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
			rec.ServerHandled += after.RequestsTotal[route] - before.RequestsTotal[route]
		}
		rec.Diff = rec.ServerHandled - rec.ClientReached
		slack := int64(float64(rec.ClientReached) * rec.TolerancePct / 100)
		if slack < 1 {
			slack = 1
		}
		rec.Pass = rec.Diff >= -slack && rec.Diff <= slack
	}
	rep.Reconcile = rec
	return rep
}

// Snapshot returns the whole-run metric delta (the registry was fresh
// at Run start) — what the SLO gate scores overall compliance against.
func (r *Runner) Snapshot() obs.Snapshot { return r.reg.Snapshot() }

// Windows returns the cumulative snapshots at the retained window
// boundaries, oldest first, for the SLO burn gate: the run-start
// baseline and one per window, at most the last windowCap windows.
func (r *Runner) Windows() []obs.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.Snapshot(nil), r.windows...)
}

// WriteSummary renders the human-readable run summary.
func (rep *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "rampload: %s  profile=%s  mix=%s  seed=%d\n",
		rep.Target, rep.Profile, rep.Mix, rep.Seed)
	fmt.Fprintf(w, "  wall %.2fs  sent %d (%.1f/s)  windows %d\n",
		rep.WallSeconds, rep.Sent, rep.AchievedRPS, len(rep.Windows))
	fmt.Fprintf(w, "  ok %d  shed(429) %d  timeout(504) %d  canceled(499) %d  http_err %d  net_err %d\n",
		rep.OK, rep.Shed, rep.Timeout, rep.Canceled, rep.HTTPErr, rep.NetErr)
	writeLat := func(name string, ls LatencyStats) {
		if ls.Count == 0 {
			return
		}
		fmt.Fprintf(w, "  %-10s count=%-9d mean=%-10.1f p50=%-9g p95=%-9g p99=%g (µs)\n",
			name, ls.Count, ls.MeanUS, ls.P50US, ls.P95US, ls.P99US)
	}
	writeLat("latency", rep.Latency)
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		writeLat("  "+route, rep.LatencyRoute[route])
	}
	writeLat("late", rep.Late)
	if rep.Reconcile.Enabled {
		verdict := "ok"
		if !rep.Reconcile.Pass {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "  reconcile client_reached=%d server_handled=%d diff=%d (tol %.2f%%) %s\n",
			rep.Reconcile.ClientReached, rep.Reconcile.ServerHandled,
			rep.Reconcile.Diff, rep.Reconcile.TolerancePct, verdict)
	} else {
		fmt.Fprintf(w, "  reconcile skipped (server /metrics unavailable)\n")
	}
	if len(rep.SLO) > 0 {
		fmt.Fprintf(w, "  slo:\n")
		slo.WriteTable(w, rep.SLO)
	}
}

// DefaultObjectives is the built-in SLO set rampload gates on when no
// objectives file is given: tail latency bounded at two seconds, load
// shedding (server 429s) under 5%, and hard errors (transport failures, unexpected statuses, 504s) under 1%.
func DefaultObjectives() []slo.Objective {
	return []slo.Objective{
		{Name: "p99-latency", Hist: MetricLatency, P: 0.99, MaxUS: 2e6},
		{Name: "shed-ratio", Bad: []string{MetricShed}, Total: MetricSent, MaxRatio: 0.05},
		{Name: "error-ratio", Bad: []string{MetricHTTPErr, MetricNetErr, MetricTimeout}, Total: MetricSent, MaxRatio: 0.01},
	}
}

// planShownWindows caps the per-window arrival listing in plan output.
const planShownWindows = 12

// WritePlan renders the run's deterministic shape — what WOULD be sent —
// without any HTTP: per-route and per-app counts, per-second arrival
// counts and an FNV-1a hash over the entire (offset, route, body)
// stream. Two renders with the same seed/profile/mix/requests are
// byte-identical; loadcheck.sh compares them to pin determinism.
func WritePlan(w io.Writer, seed int64, requests int, p Profile, m Mix) error {
	if requests <= 0 {
		return fmt.Errorf("load: plan requests must be positive (got %d)", requests)
	}
	if m.Evaluate+m.Sweep+m.Fleet <= 0 {
		return fmt.Errorf("load: plan mix must have positive total weight")
	}
	arr := newStream(seed, requests, p, m)
	h := fnv.New64a()
	routeCount := map[string]int{}
	appCount := map[string]int{}
	var winCounts []int
	var last time.Duration
	for a, ok := arr.Next(); ok; a, ok = arr.Next() {
		fmt.Fprintf(h, "%d %s %s\n", a.Due.Nanoseconds(), a.Route, a.Body)
		routeCount[a.Route]++
		appCount[arr.app]++
		win := int(a.Due / time.Second)
		for len(winCounts) <= win {
			winCounts = append(winCounts, 0)
		}
		winCounts[win]++
		last = a.Due
	}
	fmt.Fprintf(w, "rampload plan: seed=%d requests=%d profile=%s mix=%s\n",
		seed, requests, p.String(), m.String())
	fmt.Fprintf(w, "  span %.3fs over %d windows\n", last.Seconds(), len(winCounts))
	fmt.Fprintf(w, "  routes:")
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		fmt.Fprintf(w, " %s=%d", route, routeCount[route])
	}
	fmt.Fprintln(w)
	apps := make([]string, 0, len(appCount))
	for app := range appCount {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	fmt.Fprintf(w, "  apps:")
	for _, app := range apps {
		fmt.Fprintf(w, " %s=%d", app, appCount[app])
	}
	fmt.Fprintln(w)
	shown := len(winCounts)
	if shown > planShownWindows {
		shown = planShownWindows
	}
	fmt.Fprintf(w, "  arrivals/s:")
	for _, n := range winCounts[:shown] {
		fmt.Fprintf(w, " %d", n)
	}
	if shown < len(winCounts) {
		fmt.Fprintf(w, " … (+%d windows)", len(winCounts)-shown)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  stream fnv64a %016x\n", h.Sum64())
	return nil
}
