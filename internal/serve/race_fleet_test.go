// Race-lane coverage for POST /v1/fleet: 32-goroutine hammers over the
// deterministic Monte Carlo (identical requests must produce identical
// bodies with exactly one underlying evaluation), and client
// cancellation mid-simulation — the engine checks the request context
// at every shard boundary, so an abandoned fleet run stops burning CPU
// and leaks no goroutines.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestConcurrentFleetIdenticalBodies(t *testing.T) {
	s, hs := newTestServer(t)
	got := hammer(t, hs.URL+"/v1/fleet", []string{fleetBody})
	requireIdentical(t, got, hammerGoroutines)
	// All 32 fleet runs share one (app, proc) evaluation: the exp
	// cache's singleflight collapses them onto a single simulation.
	if st := s.env.CacheStats(); st.Misses != 1 {
		t.Errorf("32 identical fleet requests ran %d simulations (want exactly 1)", st.Misses)
	}
}

func TestConcurrentFleetDistinctSeeds(t *testing.T) {
	_, hs := newTestServer(t)
	bodies := []string{
		`{"app":"gzip","chips":2000,"seed":1}`,
		`{"app":"gzip","chips":2000,"seed":2}`,
		`{"app":"gzip","chips":2000,"seed":3}`,
		`{"app":"gzip","chips":2000,"seed":4}`,
	}
	got := hammer(t, hs.URL+"/v1/fleet", bodies)
	requireIdentical(t, got, hammerGoroutines)
	seen := make(map[string]bool)
	for _, responses := range got {
		seen[responses[0]] = true
	}
	if len(seen) != len(bodies) {
		t.Errorf("%d distinct seeds produced %d distinct bodies", len(bodies), len(seen))
	}
}

// TestFleetCancellationMidSimulation starts the largest admissible
// fleet run, cancels the client context once the job is in flight, and
// asserts the request fails fast and the worker goroutines drain.
func TestFleetCancellationMidSimulation(t *testing.T) {
	s, hs := newTestServer(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"app":"gzip","chips":2000000,"tquals_k":[400,370,345],"spares":4}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/fleet", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait for the job to hold a worker slot, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for s.ins.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fleet job never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-errc:
		if err == nil {
			t.Error("cancelled fleet request returned a complete response")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled fleet request never returned")
	}

	// The engine's shard workers observe the cancelled context at the
	// next shard boundary and exit; the pool job (running on the
	// server's handler goroutine) finishes with them. Poll until the
	// inflight gauge clears and the goroutine count returns to (near)
	// baseline — the client's error above races ahead of the server's
	// own teardown, so both are eventual, not immediate.
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(30 * time.Second)
	for {
		if s.ins.inflight.Value() == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job did not drain: inflight %d, goroutines %d vs %d baseline",
				s.ins.inflight.Value(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
