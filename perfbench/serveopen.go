package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/serve"
	"ramp/internal/trace"
)

// The open loop: a constant arrival rate well under the warm closed-loop
// capacity (about 4.5-5.3k req/s on a 2-core host), driven over at most
// serveConns connections.
const (
	serveRate  = 2000 // arrivals per second
	serveConns = 2
)

// The request grids of the LOAD_1 mix (internal/load): every body draws
// an application, then route-specific knobs, from these.
var (
	loadTquals   = []float64{400, 385, 370, 355, 345}
	loadFreqs    = []float64{0, 4.5e9, 3.5e9} // 0 keeps the base 4 GHz point
	loadFleetSds = []int{1, 2, 3, 4}
)

// loadMix weights the routes as LOAD_1 does: evaluate=8, sweep=1, fleet=1.
var loadMix = []struct {
	route  string
	weight float64
}{{"evaluate", 8}, {"sweep", 1}, {"fleet", 1}}

var routes = []string{"evaluate", "sweep", "fleet"}

// loadRequest is one arrival of the open loop.
type loadRequest struct {
	route string
	body  string
}

// requestStream draws n requests from the seeded sampler.
func requestStream(seed int64, n int) []loadRequest {
	rng := newRNG(seed, 0x10ad_5a3b_1e55_0003)
	apps := trace.Apps()
	var total float64
	for _, m := range loadMix {
		total += m.weight
	}
	out := make([]loadRequest, n)
	for i := range out {
		u := rng.Float64() * total
		app := apps[rng.IntN(len(apps))].Name
		route := loadMix[len(loadMix)-1].route
		for _, m := range loadMix {
			if u < m.weight {
				route = m.route
				break
			}
			u -= m.weight
		}
		var body string
		switch route {
		case "evaluate":
			tq := loadTquals[rng.IntN(len(loadTquals))]
			body = fmt.Sprintf(`{"app":%q,"tqual_k":%g}`, app, tq)
			if f := loadFreqs[rng.IntN(len(loadFreqs))]; f > 0 {
				body = fmt.Sprintf(`{"app":%q,"freq_hz":%g,"tqual_k":%g}`, app, f, tq)
			}
		case "sweep":
			tq := loadTquals[rng.IntN(len(loadTquals))]
			body = fmt.Sprintf(`{"app":%q,"adaptation":"DVS","tquals_k":[400,%g]}`, app, tq)
		default:
			body = fmt.Sprintf(`{"app":%q,"chips":2000,"seed":%d}`, app, loadFleetSds[rng.IntN(len(loadFleetSds))])
		}
		out[i] = loadRequest{route: route, body: body}
	}
	return out
}

// due returns request i's scheduled send offset.
func due(i int) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / serveRate)
}

// scheduleHash fingerprints the request stream and its schedule.
func scheduleHash(reqs []loadRequest) string {
	h := fnv.New64a()
	for i, q := range reqs {
		fmt.Fprintf(h, "%d %s %s\n", due(i), q.route, q.body)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// server is one in-process rampserve instance on a loopback port.
type server struct {
	base   string
	client *http.Client
	env    *exp.Env
	cancel context.CancelFunc
	done   chan error
}

func startServer() (*server, error) {
	env := exp.NewEnv(exp.QuickOptions())
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.EnablePprof = false
	cfg.FreqStepHz = goldenFreqStepHz
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
		env:    env,
		cancel: cancel,
		done:   make(chan error, 1),
	}
	srv := serve.New(env, cfg)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop shuts the server down and waits until Serve has returned.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// post sends one request and reads the whole response.
func (s *server) post(route, body string) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/"+route, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serverMetrics is the slice of rampserve's /metrics JSON the benchmark
// reads.
type serverMetrics struct {
	RequestsTotal map[string]int64 `json:"requests_total"`
	ShedTotal     int64            `json:"shed_total"`
	TimeoutTotal  int64            `json:"timeout_total"`
	Cache         struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	LatencyUS map[string]struct {
		Count   int64            `json:"count"`
		SumUS   int64            `json:"sum_us"`
		Buckets map[string]int64 `json:"buckets_le_us"`
	} `json:"latency_us"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// hist returns one /metrics latency histogram in obs form.
func (m serverMetrics) hist(name string) obs.HistogramSnapshot {
	h := m.LatencyUS[name]
	out := obs.HistogramSnapshot{Count: h.Count, Sum: h.SumUS, Buckets: make(map[string]int64, len(h.Buckets))}
	for le, c := range h.Buckets {
		if le == "+inf" {
			le = "+Inf"
		}
		out.Buckets[le] = c
	}
	return out
}

func (m serverMetrics) handled() int64 {
	var n int64
	for _, r := range routes {
		n += m.RequestsTotal[r]
	}
	return n
}

// warm sends every distinct body once, closed-loop over serveConns
// connections, checks each response and returns its hash by body.
func warm(s *server, reqs []loadRequest) (map[string]uint64, error) {
	seen := make(map[string]bool)
	var distinct []loadRequest
	for _, q := range reqs {
		if !seen[q.body] {
			seen[q.body] = true
			distinct = append(distinct, q)
		}
	}
	hashes := make([]uint64, len(distinct))
	errs := make([]error, len(distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(distinct); i = int(next.Add(1)) - 1 {
				q := distinct[i]
				status, body, err := s.post(q.route, q.body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err == nil {
					err = checkResponse(q.route, body)
				}
				errs[i] = err
				hashes[i] = bodyHash(body)
			}
		}()
	}
	wg.Wait()
	out := make(map[string]uint64, len(distinct))
	for i, q := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("warm %s %s: %w", q.route, q.body, errs[i])
		}
		out[q.body] = hashes[i]
	}
	return out, nil
}

// bodyHash fingerprints a response body.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // a hash.Hash never returns a write error
	return h.Sum64()
}

// checkResponse checks the invariants of one response body: the FIT
// verdict agrees with the target, a sweep never gains performance at a
// cheaper qualification, and fleet survival never rises with time.
func checkResponse(route string, body []byte) error {
	switch route {
	case "evaluate":
		var v serve.EvaluateResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !(v.FIT > 0) || v.MeetsTarget != (v.FIT <= v.TargetFIT) || v.MaxTempK < v.AvgTempK {
			return fmt.Errorf("inconsistent evaluation %+v", v)
		}
	case "sweep":
		var v serve.SweepResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Choices) != 2 {
			return fmt.Errorf("sweep returned %d choices, want 2", len(v.Choices))
		}
		hot, cold := v.Choices[0], v.Choices[1] // tquals_k is [400, lower]
		if cold.Feasible && (!hot.Feasible || cold.RelPerf > hot.RelPerf) {
			return fmt.Errorf("sweep gains performance at %gK: %+v vs %+v", cold.TqualK, cold, hot)
		}
	case "fleet":
		var v serve.FleetResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		for _, res := range v.Results {
			for k := 1; k < len(res.Survival); k++ {
				if res.Survival[k] > res.Survival[k-1] {
					return fmt.Errorf("fleet survival rises at %g years", res.SurvivalYears[k])
				}
			}
		}
	}
	return nil
}

// outcome is what happened to one arrival, as offsets from the phase
// start.
type outcome struct {
	send, done time.Duration
	status     int
	err        error
	mismatch   bool
}

// phase is one open-loop run over a request stream.
type phase struct {
	outs  []outcome
	wall  time.Duration // phase start to the last completion
	cpu   time.Duration
	spans []span // traced phases: one root per connection
}

// openLoop sends reqs on the constant-rate schedule over serveConns
// connections. A connection takes the next arrival as soon as it is free
// and sends it at its due time, or at once if it is already late; no
// arrival is ever dropped, so a stall shows as latency measured from the
// due time of every request queued behind it.
func openLoop(s *server, reqs []loadRequest, want map[string]uint64, traced bool) *phase {
	p := &phase{outs: make([]outcome, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	recs := make([]*recorder, serveConns)
	u := now()
	for c := range recs {
		recs[c] = tracedRecorder(traced, u.wall)
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			root := rec.begin("serve.conn")
			defer rec.end(root)
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				sleepUntil(u.wall.Add(due(i)))
				q := reqs[i]
				o := &p.outs[i]
				o.send = time.Since(u.wall)
				sp := rec.begin("serve." + q.route)
				var body []byte
				o.status, body, o.err = s.post(q.route, q.body)
				rec.end(sp)
				o.done = time.Since(u.wall)
				o.mismatch = bodyHash(body) != want[q.body]
			}
		}(recs[c])
	}
	wg.Wait()
	p.wall, p.cpu = u.since()
	for _, rec := range recs {
		if rec != nil {
			p.spans = append(p.spans, rebase(rec.spans, len(p.spans))...)
		}
	}
	return p
}

// sleepUntil blocks until t. It sleeps in nanosleep(2), not time.Sleep:
// an otherwise idle Go runtime wakes sleepers from epoll with a 1 ms
// timeout granularity, which would make the generator itself up to a
// millisecond late on most arrivals; nanosleep wakes within tens of
// microseconds, and the runtime hands the blocked thread's processor to
// other goroutines meanwhile.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// rebase shifts parent indexes so several tracks' spans share a slice.
func rebase(spans []span, offset int) []span {
	out := append([]span(nil), spans...)
	for i := range out {
		if out[i].parent >= 0 {
			out[i].parent += offset
		}
	}
	return out
}

// account counts every arrival of a phase as an op, failing non-2xx
// responses, transport errors and bodies that differ from the warm
// response, and reconciles the client's counts with the server's.
func account(r *run, p *phase, reqs []loadRequest, before, after serverMetrics) {
	var completed int64
	var failures []string
	for i, o := range p.outs {
		r.attempted++
		switch {
		case o.err != nil:
			failures = append(failures, fmt.Sprintf("%s: %v", reqs[i].route, o.err))
		case o.status != http.StatusOK:
			completed++
			failures = append(failures, fmt.Sprintf("%s: status %d", reqs[i].route, o.status))
		case o.mismatch:
			completed++
			failures = append(failures, fmt.Sprintf("%s %s: body differs from the warm response", reqs[i].route, reqs[i].body))
		default:
			completed++
			continue
		}
		r.failed++
	}
	for i, f := range failures {
		if i == 5 {
			r.logf("FAIL ... %d more failed requests", len(failures)-5)
			break
		}
		r.logf("FAIL %s", f)
	}
	handled := after.handled() - before.handled()
	r.check(handled == int64(len(reqs)) && completed == int64(len(reqs)),
		"reconcile: sent %d, completed %d, server handled %d", len(reqs), completed, handled)
	r.logf("reconcile: sent %d completed %d server-handled %d", len(reqs), completed, handled)
}

// latencies returns each arrival's latency from its due time, in ms,
// and how late each was sent, in µs.
func latencies(p *phase) (lat, late []float64) {
	for i, o := range p.outs {
		lat = append(lat, (o.done-due(i)).Seconds()*1000)
		late = append(late, float64((o.send - due(i)).Microseconds()))
	}
	return lat, late
}

// serveOpen serves the LOAD_1 mix open-loop from an in-process rampserve
// whose caches set-up has warmed.
func serveOpen(r *run) error {
	n := int(r.seconds.Seconds() * serveRate)
	reqs := requestStream(r.seed, n)
	r.logf("stream: %d requests at %d/s over %d connections, schedule hash %s", n, serveRate, serveConns, scheduleHash(reqs))

	var setups, rates []float64
	var srv *server
	var want map[string]uint64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		s, err := startServer()
		if err != nil {
			return err
		}
		w, err := warm(s, reqs)
		wall := time.Since(t)
		if err != nil {
			_ = s.stop() // the warm-up error is the one to report
			return err
		}
		misses := s.env.CacheStats().Misses
		setups = append(setups, wall.Seconds())
		rates = append(rates, simRate(misses, s.env.Opts, wall))
		r.logf("setup %d: %.3fs, %d distinct bodies, %d evaluations", i, wall.Seconds(), len(w), misses)
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop server: %w", err)
			}
		}
		srv, want = s, w
	}
	d := newDigest()
	bodies := make([]string, 0, len(want))
	for b := range want {
		bodies = append(bodies, b)
	}
	sort.Strings(bodies)
	for _, b := range bodies {
		d.add("%s %x;", b, want[b])
	}
	r.logf("digest serve %s (every distinct response body)", d)

	// Traced runs split the stream: the first half untraced, the second
	// traced, so the CPU difference is the tracing overhead.
	parts := [][]loadRequest{reqs}
	if r.traced {
		parts = [][]loadRequest{reqs[:n/2], reqs[n/2 : 2*(n/2)]}
	}
	var last *phase
	var lastBefore, lastAfter serverMetrics
	var cpus []time.Duration
	for k, part := range parts {
		before, err := srv.metrics()
		if err != nil {
			return err
		}
		p := openLoop(srv, part, want, r.traced && k == 1)
		after, err := srv.metrics()
		if err != nil {
			return err
		}
		account(r, p, part, before, after)
		r.check(after.ShedTotal == before.ShedTotal && after.TimeoutTotal == before.TimeoutTotal,
			"server shed %d and timed out %d requests", after.ShedTotal-before.ShedTotal, after.TimeoutTotal-before.TimeoutTotal)
		last, lastBefore, lastAfter = p, before, after
		cpus = append(cpus, p.cpu)
		r.logf("phase %d traced=%v: wall=%.3fs cpu=%.3fs", k, r.traced && k == 1, p.wall.Seconds(), p.cpu.Seconds())
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}

	lat, late := latencies(last)
	r.logf("latency from due time over %d requests: p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms",
		len(lat), median(lat), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99))
	r.logf("generator lateness: p50 %.0f p90 %.0f p99 %.0f µs", median(late), quantile(late, 0.9), quantile(late, 0.99))
	var sent []float64
	for _, o := range last.outs {
		sent = append(sent, (o.done-o.send).Seconds()*1000)
	}
	r.logf("latency from send: p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms", median(sent), quantile(sent, 0.9), quantile(sent, 0.95), quantile(sent, 0.99))
	if r.traced {
		serveLayers(r, last, parts[1], lastBefore, lastAfter)
		r.set("trace.overhead_s", "s", (cpus[1] - cpus[0]).Seconds())
		return nil
	}
	r.set("setup_s", "s", median(setups))
	r.set("wall_s", "s", last.wall.Seconds())
	r.set("cpu_s", "s", last.cpu.Seconds())
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
	r.set("sim_minstr_per_s", "Minstr/s", median(rates))
	r.set("p50_ms", "ms", median(lat))
	r.set("cpu_ms_per_op", "ms", 1000*last.cpu.Seconds()/float64(len(lat)))
	return nil
}

// serveLayers splits the traced phase's client time per route into the
// server's queue wait and compute (from /metrics deltas) and the rest —
// HTTP, middleware and JSON — and checks the per-connection ledger.
func serveLayers(r *run, p *phase, reqs []loadRequest, before, after serverMetrics) {
	l := newLedger(p.spans)
	for k, v := range l.report(r, "serve-open connections", serveConns*p.wall) {
		r.set(k, "s", v)
	}
	for _, route := range routes {
		r.set("serve.client_s."+route, "s", l.parts["serve."+route].Seconds())
	}

	queue := histDelta(before.hist("queue_wait"), after.hist("queue_wait"))
	queueP50 := orZero(queue.Quantile(0.5))
	r.set("serve.queue_wait_us_p50", "us", queueP50)
	r.set("serve.queue_wait_us_p99", "us", orZero(queue.Quantile(0.99)))
	client := make(map[string][]float64)
	for i, o := range p.outs {
		client[reqs[i].route] = append(client[reqs[i].route], float64((o.done-o.send).Nanoseconds())/1000)
	}
	r.logf("serve path p50 per route (µs): client = queue wait + compute + overhead")
	for _, route := range routes {
		h := histDelta(before.hist(route), after.hist(route))
		compute := orZero(h.Quantile(0.5))
		c := orZero(median(client[route]))
		q := queueP50
		if h.Count == 0 {
			q = 0 // served from a response cache, outside the worker pool
		}
		r.set("serve.compute_us_p50."+route, "us", compute)
		r.set("serve.client_us_p50."+route, "us", c)
		r.set("serve.overhead_us_p50."+route, "us", c-q-compute)
		r.logf("  %-9s n=%-6d client %8.1f = queue %7.1f + compute %7.1f + overhead %8.1f", route, len(client[route]), c, q, compute, c-q-compute)
	}
	r.set("serve.shed", "count", float64(after.ShedTotal-before.ShedTotal))
	r.set("serve.timeouts", "count", float64(after.TimeoutTotal-before.TimeoutTotal))
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	r.set("exp.evaluations", "count", float64(misses))
	if hits+misses > 0 {
		r.set("exp.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	lat, late := latencies(p)
	r.set("load.late_us_p99", "us", quantile(late, 0.99))
	r.set("op.p99_ms", "ms", quantile(lat, 0.99))
}
