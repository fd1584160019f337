// Race-lane coverage for the serve layer's concurrency: these tests
// hammer the endpoints from 32 goroutines and run in the CI
// `go test -race -short ./internal/...` lane, asserting the properties
// the architecture promises — identical requests get identical bodies
// and exactly one underlying simulation per distinct cache key
// (singleflight), and shutdown drains in-flight requests cleanly.
package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ramp/internal/exp"
)

const hammerGoroutines = 32

// hammer fires one POST per goroutine (bodies[i%len(bodies)]) and
// returns the response bodies grouped by request body.
func hammer(t *testing.T, url string, bodies []string) map[string][]string {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := make(map[string][]string)
	for i := 0; i < hammerGoroutines; i++ {
		reqBody := bodies[i%len(bodies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", strings.NewReader(reqBody))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			mu.Lock()
			got[reqBody] = append(got[reqBody], string(b))
			mu.Unlock()
		}()
	}
	wg.Wait()
	return got
}

// requireIdentical asserts every response within a request group is
// byte-identical.
func requireIdentical(t *testing.T, got map[string][]string, want int) {
	t.Helper()
	total := 0
	for req, responses := range got {
		total += len(responses)
		for i, r := range responses[1:] {
			if r != responses[0] {
				t.Fatalf("request %s: response %d differs:\n%s\nvs\n%s", req, i+1, r, responses[0])
			}
		}
	}
	if total != want {
		t.Fatalf("%d successful responses (want %d)", total, want)
	}
}

func TestConcurrentEvaluateSingleflight(t *testing.T) {
	s, hs := newTestServer(t)
	body := `{"app":"twolf","freq_hz":4.5e9,"tqual_k":370}`
	got := hammer(t, hs.URL+"/v1/evaluate", []string{body})
	requireIdentical(t, got, hammerGoroutines)
	st := s.Env().CacheStats()
	if st.Misses != 1 {
		t.Errorf("32 identical requests ran %d simulations (want exactly 1)", st.Misses)
	}
	if st.Hits != hammerGoroutines-1 {
		t.Errorf("cache hits = %d (want %d)", st.Hits, hammerGoroutines-1)
	}
}

func TestConcurrentEvaluateDistinctKeys(t *testing.T) {
	s, hs := newTestServer(t)
	bodies := []string{
		`{"app":"twolf"}`,
		`{"app":"twolf","freq_hz":4.5e9}`,
		`{"app":"gzip"}`,
		`{"app":"gzip","window":32,"alus":2,"fpus":1}`,
	}
	got := hammer(t, hs.URL+"/v1/evaluate", bodies)
	requireIdentical(t, got, hammerGoroutines)
	if st := s.Env().CacheStats(); st.Misses != int64(len(bodies)) {
		t.Errorf("%d distinct configs ran %d simulations (want exactly %d)",
			len(bodies), st.Misses, len(bodies))
	}
}

func TestConcurrentSweepSingleflight(t *testing.T) {
	s, hs := newTestServer(t)
	body := `{"app":"twolf","adaptation":"Arch","tquals_k":[400,345]}`
	got := hammer(t, hs.URL+"/v1/sweep", []string{body})
	requireIdentical(t, got, hammerGoroutines)
	// A sweep evaluates the base machine plus the 18 Arch candidates, but
	// the base IS one of those candidates (same cache key), so exactly 18
	// distinct simulations run across all 32 concurrent sweeps.
	if st := s.Env().CacheStats(); st.Misses != 18 {
		t.Errorf("32 identical sweeps ran %d simulations (want exactly 18)", st.Misses)
	}
}

// TestGracefulShutdownWithInflight cancels the serve context while a
// sweep is mid-flight and asserts (a) the in-flight request still
// completes with 200 and (b) Serve returns nil (clean drain).
func TestGracefulShutdownWithInflight(t *testing.T) {
	cfg := tinyConfig()
	// The assertion is about drain semantics, not drain speed: give the
	// in-flight sweep ample room to finish under -race.
	cfg.DrainTimeout = 2 * time.Minute
	s := New(exp.NewEnv(tinyOptions()), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	// An Arch sweep (18 simulations) is slow enough to still be running
	// when shutdown starts, yet drains quickly even under -race.
	type result struct {
		status int
		body   string
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/sweep", "application/json",
			strings.NewReader(`{"app":"twolf","adaptation":"Arch","tquals_k":[400]}`))
		if err != nil {
			t.Errorf("sweep during shutdown: %v", err)
			resc <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{resp.StatusCode, string(b)}
	}()

	// Wait until the request is actually in flight, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for s.ins.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	res := <-resc
	if res.status != http.StatusOK {
		t.Errorf("in-flight sweep: status %d, body %s (want 200: drain must finish it)", res.status, res.body)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v (want nil on clean drain)", err)
		}
	case <-time.After(cfg.DrainTimeout + 5*time.Second):
		t.Fatal("Serve never returned after cancel")
	}

	// New connections are refused once drained.
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Error("healthz after drain: connection unexpectedly succeeded")
	}
}

// TestConcurrentMixedTraffic interleaves evaluates, sweeps, healthz and
// metrics probes — the shape a dashboard plus CI clients produce — and
// checks nothing races (the -race lane) and counters stay coherent.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, hs := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < hammerGoroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json",
					strings.NewReader(`{"app":"twolf"}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			case 1:
				resp, err := http.Post(hs.URL+"/v1/sweep", "application/json",
					strings.NewReader(`{"app":"twolf","adaptation":"DVS","tquals_k":[370]}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			case 2:
				resp, err := http.Get(hs.URL + "/v1/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			case 3:
				resp, err := http.Get(hs.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := s.snapshotMetrics()
	wantReq := int64(hammerGoroutines)
	var gotReq int64
	for _, v := range snap.RequestsTotal {
		gotReq += v
	}
	// The final /metrics read below is not counted yet; the hammer's own
	// requests all are.
	if gotReq != wantReq {
		t.Errorf("requests_total sums to %d (want %d)", gotReq, wantReq)
	}
	if snap.InflightJobs != 0 || snap.QueuedJobs != 0 {
		t.Errorf("gauges nonzero at rest: %+v", snap)
	}
}
