package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ramp/internal/exp"
	"ramp/internal/serve"
	"ramp/internal/slo"
)

func TestParseProfile(t *testing.T) {
	cases := []struct {
		in   string
		want Profile
	}{
		{"constant:2000", Profile{Kind: "constant", RPS: 2000}},
		{"poisson:50.5", Profile{Kind: "poisson", RPS: 50.5}},
		{"step:100,400@2s", Profile{Kind: "step", RPS: 100, RPS2: 400, At: 2 * time.Second}},
		{"spike:100,5000@1s+500ms", Profile{Kind: "spike", RPS: 100, RPS2: 5000, At: time.Second, Dur: 500 * time.Millisecond}},
	}
	for _, c := range cases {
		got, err := ParseProfile(c.in)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseProfile(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := ParseProfile(got.String())
		if err != nil || back != got {
			t.Errorf("String round-trip of %q gave %+v (%v)", c.in, back, err)
		}
	}
	for _, bad := range []string{
		"", "constant", "constant:0", "constant:-5", "constant:2e9",
		"warble:9", "step:100@2s", "step:100,200", "spike:100,200@1s",
		"spike:100,200@1s+0s", "step:100,200@-1s",
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

func TestScheduleDeterministicSpacing(t *testing.T) {
	// constant:1000 → arrivals exactly 1ms apart.
	s := newSchedule(Profile{Kind: "constant", RPS: 1000}, 42)
	for i := 1; i <= 5; i++ {
		got := s.next()
		want := time.Duration(i) * time.Millisecond
		if got != want {
			t.Fatalf("arrival %d at %s, want %s", i, got, want)
		}
	}

	// Two poisson schedules with one seed agree; a different seed differs.
	a := newSchedule(Profile{Kind: "poisson", RPS: 1000}, 7)
	b := newSchedule(Profile{Kind: "poisson", RPS: 1000}, 7)
	c := newSchedule(Profile{Kind: "poisson", RPS: 1000}, 8)
	var diverged bool
	for i := 0; i < 100; i++ {
		av, bv, cv := a.next(), b.next(), c.next()
		if av != bv {
			t.Fatalf("same-seed poisson diverged at draw %d: %s vs %s", i, av, bv)
		}
		if av != cv {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical poisson schedules")
	}
}

func TestScheduleShapes(t *testing.T) {
	// step:10,1000@1s — sparse first second, dense afterwards.
	s := newSchedule(Profile{Kind: "step", RPS: 10, RPS2: 1000, At: time.Second}, 1)
	var before, after int
	for i := 0; i < 1020; i++ {
		off := s.next()
		if off <= time.Second {
			before++
		} else if off <= 2*time.Second {
			after++
		}
	}
	if before > 11 || after < 900 {
		t.Errorf("step profile: %d arrivals before the step, %d in the second after", before, after)
	}

	// spike:10,1000@1s+1s — dense only inside the burst.
	s = newSchedule(Profile{Kind: "spike", RPS: 10, RPS2: 1000, At: time.Second, Dur: time.Second}, 1)
	counts := map[int]int{}
	for i := 0; i < 1030; i++ {
		counts[int(s.next()/time.Second)]++
	}
	if counts[0] > 11 || counts[1] < 900 || counts[2] > 15 {
		t.Errorf("spike profile window counts: %v", counts)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("evaluate=8,sweep=1,fleet=1")
	if err != nil || m != (Mix{Evaluate: 8, Sweep: 1, Fleet: 1}) {
		t.Fatalf("ParseMix = %+v, %v", m, err)
	}
	m, err = ParseMix("sweep=2")
	if err != nil || m != (Mix{Sweep: 2}) {
		t.Fatalf("ParseMix single = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "evaluate", "evaluate=x", "bogus=1", "evaluate=0,sweep=0,fleet=0", "evaluate=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestSamplerDeterministicAndWeighted(t *testing.T) {
	mix := Mix{Evaluate: 8, Sweep: 1, Fleet: 1}
	a, b := newSampler(mix, 5, nil), newSampler(mix, 5, nil)
	counts := map[string]int{}
	appSet := map[string]bool{}
	for _, app := range corpusApps {
		appSet[app] = true
	}
	const n = 5000
	for i := 0; i < n; i++ {
		ra, rb := a.sample(), b.sample()
		if ra != rb {
			t.Fatalf("same-seed samplers diverged at draw %d: %+v vs %+v", i, ra, rb)
		}
		counts[ra.route]++
		if !appSet[ra.app] {
			t.Fatalf("sampled unknown app %q", ra.app)
		}
		if !json.Valid([]byte(ra.body)) {
			t.Fatalf("invalid body JSON: %s", ra.body)
		}
		if !strings.Contains(ra.body, fmt.Sprintf("%q", ra.app)) {
			t.Fatalf("body %s does not mention app %q", ra.body, ra.app)
		}
	}
	// 8:1:1 weights → ~80%/10%/10%, generous ±5-point slop.
	frac := func(route string) float64 { return float64(counts[route]) / n }
	if math.Abs(frac(RouteEvaluate)-0.8) > 0.05 ||
		math.Abs(frac(RouteSweep)-0.1) > 0.05 ||
		math.Abs(frac(RouteFleet)-0.1) > 0.05 {
		t.Errorf("route mix off: %v", counts)
	}

	// A zero-weight route is never drawn.
	s := newSampler(Mix{Evaluate: 1}, 5, nil)
	for i := 0; i < 200; i++ {
		if r := s.sample(); r.route != RouteEvaluate {
			t.Fatalf("zero-weight route %q sampled", r.route)
		}
	}
}

func TestWritePlanDeterministic(t *testing.T) {
	p := Profile{Kind: "poisson", RPS: 500}
	m := Mix{Evaluate: 8, Sweep: 1, Fleet: 1}
	render := func(seed int64) string {
		var sb strings.Builder
		if err := WritePlan(&sb, seed, 2000, p, m); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	one, two := render(3), render(3)
	if one != two {
		t.Errorf("same-seed plans differ:\n%s\nvs\n%s", one, two)
	}
	if other := render(4); other == one {
		t.Error("different seeds produced identical plans")
	}
	for _, want := range []string{"seed=3", "requests=2000", "stream fnv64a", "routes:", "apps:"} {
		if !strings.Contains(one, want) {
			t.Errorf("plan missing %q:\n%s", want, one)
		}
	}
}

// TestWritePlanStreamHash pins the arrival and body stream of a spike
// profile bit for bit: the hash covers every offset, route and body the
// schedule and sampler draw, so any change to the PRNG shows here.
func TestWritePlanStreamHash(t *testing.T) {
	p, err := ParseProfile("spike:2000,20000@1s+500ms")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMix("evaluate=8,sweep=1,fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WritePlan(&sb, 7, 5000, p, m); err != nil {
		t.Fatal(err)
	}
	if want := "stream fnv64a 2d4df15a9b084664\n"; !strings.HasSuffix(sb.String(), want) {
		t.Fatalf("plan stream changed, want %q:\n%s", want, sb.String())
	}
}

// fakeRampserve mimics the slice of rampserve's contract the harness
// depends on: the three POST routes plus the /metrics JSON counters.
// status picks the response code for the i-th handled request.
type fakeRampserve struct {
	mu      sync.Mutex
	handled map[string]int64
	status  func(i int64, route string) int
}

func newFakeRampserve(status func(i int64, route string) int) *fakeRampserve {
	if status == nil {
		status = func(int64, string) int { return http.StatusOK }
	}
	return &fakeRampserve{handled: map[string]int64{}, status: status}
}

func (f *fakeRampserve) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(name string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			i := f.handled["total"]
			f.handled["total"]++
			f.handled[name]++
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(f.status(i, name))
			fmt.Fprint(w, `{}`)
		}
	}
	mux.HandleFunc("POST /v1/evaluate", route(RouteEvaluate))
	mux.HandleFunc("POST /v1/sweep", route(RouteSweep))
	mux.HandleFunc("POST /v1/fleet", route(RouteFleet))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		snap := map[string]any{"requests_total": map[string]int64{
			RouteEvaluate: f.handled[RouteEvaluate],
			RouteSweep:    f.handled[RouteSweep],
			RouteFleet:    f.handled[RouteFleet],
		}}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			t := http.StatusInternalServerError
			w.WriteHeader(t)
		}
	})
	return mux
}

func testConfig(url string, n int) Config {
	return Config{
		BaseURL:     url,
		Seed:        11,
		Requests:    n,
		Profile:     Profile{Kind: "constant", RPS: 2000},
		Mix:         Mix{Evaluate: 8, Sweep: 1, Fleet: 1},
		MaxInflight: 256,
		Timeout:     10 * time.Second,
		WindowEvery: 50 * time.Millisecond,
		WindowCap:   100,
	}
}

func TestRunnerOpenLoopAgainstFake(t *testing.T) {
	fake := newFakeRampserve(nil)
	hs := httptest.NewServer(fake.handler())
	defer hs.Close()

	var ndjson bytes.Buffer
	cfg := testConfig(hs.URL, 400)
	cfg.NDJSON = &ndjson
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Sent != 400 {
		t.Errorf("sent = %d, want 400", rep.Sent)
	}
	reached := rep.Sent - rep.Dropped - rep.NetErr
	if rep.OK != reached {
		t.Errorf("ok = %d, want every reached request (%d)", rep.OK, reached)
	}
	if rep.Latency.Count != reached {
		t.Errorf("latency count = %d, want %d", rep.Latency.Count, reached)
	}
	if !rep.Reconcile.Enabled || !rep.Reconcile.Pass {
		t.Errorf("reconciliation failed: %+v", rep.Reconcile)
	}
	if rep.Mode != "open" || rep.Profile != "constant:2000" {
		t.Errorf("report config echo wrong: mode=%q profile=%q", rep.Mode, rep.Profile)
	}

	// Per-route latency counts sum to the overall count.
	var perRoute int64
	for _, route := range []string{RouteEvaluate, RouteSweep, RouteFleet} {
		perRoute += rep.LatencyRoute[route].Count
	}
	if perRoute != rep.Latency.Count {
		t.Errorf("per-route latency counts sum to %d, overall %d", perRoute, rep.Latency.Count)
	}

	// NDJSON frames parse and their counter sums match the report.
	var framesSent int64
	for _, line := range strings.Split(strings.TrimSpace(ndjson.String()), "\n") {
		if line == "" {
			continue
		}
		var f WindowFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		framesSent += f.Sent
	}
	if framesSent != rep.Sent {
		t.Errorf("window frames sum to %d sent, report says %d", framesSent, rep.Sent)
	}
	if len(rep.Windows) == 0 {
		t.Error("report retained no windows")
	}
}

func TestRunnerClassifiesOutcomes(t *testing.T) {
	// Every 4th request sheds, every 10th times out, one 500.
	fake := newFakeRampserve(func(i int64, _ string) int {
		switch {
		case i%10 == 9:
			return http.StatusGatewayTimeout
		case i%4 == 3:
			return http.StatusTooManyRequests
		case i == 0:
			return http.StatusInternalServerError
		default:
			return http.StatusOK
		}
	})
	hs := httptest.NewServer(fake.handler())
	defer hs.Close()

	r, err := New(testConfig(hs.URL, 200))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reached := rep.Sent - rep.Dropped - rep.NetErr
	if got := rep.OK + rep.Shed + rep.Timeout + rep.Canceled + rep.HTTPErr; got != reached {
		t.Errorf("outcome tallies sum to %d, want %d", got, reached)
	}
	if rep.Shed == 0 || rep.Timeout == 0 || rep.HTTPErr == 0 {
		t.Errorf("expected mixed outcomes, got %+v", rep)
	}
	if rep.Latency.Count != reached {
		t.Errorf("latency histogram counts %d, want every response (%d)", rep.Latency.Count, reached)
	}
}

func TestRunnerClosedLoop(t *testing.T) {
	fake := newFakeRampserve(nil)
	hs := httptest.NewServer(fake.handler())
	defer hs.Close()

	cfg := testConfig(hs.URL, 300)
	cfg.Closed = true
	cfg.Workers = 8
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" || rep.Sent != 300 || rep.OK != 300 || rep.Dropped != 0 {
		t.Errorf("closed loop: %+v", rep)
	}
	if !rep.Reconcile.Pass {
		t.Errorf("closed-loop reconciliation failed: %+v", rep.Reconcile)
	}
}

func TestRunnerCancellation(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	hs := httptest.NewServer(slow)
	defer hs.Close()

	cfg := testConfig(hs.URL, 1_000_000)
	cfg.Profile = Profile{Kind: "constant", RPS: 100}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("canceled run should report, not fail: %v", err)
	}
	if rep.Sent >= 1_000_000 {
		t.Error("cancellation did not stop the schedule")
	}
}

func TestRunnerSLOGate(t *testing.T) {
	// A healthy fake passes the default objectives; an always-shedding
	// one breaches the shed-ratio objective.
	healthy := newFakeRampserve(nil)
	hsOK := httptest.NewServer(healthy.handler())
	defer hsOK.Close()
	run := func(url string) []slo.Result {
		r, err := New(testConfig(url, 300))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := slo.Evaluate(DefaultObjectives(), r.Snapshot(), r.Deltas())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(hsOK.URL); slo.Breached(res) {
		t.Errorf("healthy run breached: %+v", res)
	}

	shedding := newFakeRampserve(func(int64, string) int { return http.StatusTooManyRequests })
	hsBad := httptest.NewServer(shedding.handler())
	defer hsBad.Close()
	if res := run(hsBad.URL); !slo.Breached(res) {
		t.Errorf("100%% shed run did not breach: %+v", res)
	}
}

// TestRunnerAgainstRealServe drives the actual rampserve handler stack
// end to end: the sampled bodies must be accepted by the real
// normalizers and the reconciliation must line up with the server's own
// counters.
func TestRunnerAgainstRealServe(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation integration run")
	}
	opts := exp.QuickOptions()
	opts.WarmupInstrs = 4_000
	opts.EpochInstrs = 4_000
	opts.Epochs = 2
	cfg := serve.DefaultConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	cfg.RequestTimeout = time.Minute
	cfg.EnablePprof = false
	srv := serve.New(exp.NewEnv(opts), cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	lcfg := testConfig(hs.URL, 60)
	lcfg.Profile = Profile{Kind: "constant", RPS: 500}
	lcfg.Mix = Mix{Evaluate: 8, Sweep: 1, Fleet: 1}
	r, err := New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.HTTPErr != 0 {
		t.Errorf("real server rejected %d sampled bodies (%+v)", rep.HTTPErr, rep)
	}
	if rep.OK == 0 {
		t.Errorf("no successful requests: %+v", rep)
	}
	if !rep.Reconcile.Enabled || !rep.Reconcile.Pass {
		t.Errorf("reconciliation vs real rampserve failed: %+v", rep.Reconcile)
	}
}
