// Shed-path observability: 429s and 504s must stay fully attributable —
// every shed response echoes (or mints) an X-Request-ID, bumps the
// right counters, and touches exactly the latency families its request
// actually exercised. A 429 never reached the pool, so no latency
// family moves; a 504's evaluation did run (to cancellation), so the
// compute family records it.
package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ramp/internal/exp"
)

func TestShed429MintsRequestIDAndSkipsLatency(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 0
	s := New(exp.NewEnv(tinyOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Saturate admission deterministically by taking the only token.
	s.pool.admit <- struct{}{}
	defer func() { <-s.pool.admit }()

	// No inbound ID: the middleware must mint one even on the shed path.
	resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json",
		strings.NewReader(`{"app":"twolf"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(id, "ramp-") {
		t.Errorf("429 did not mint a request ID: got %q", id)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 missing Retry-After")
	}

	if shed := s.ins.shed.Value(); shed != 1 {
		t.Errorf("shed_total = %d, want 1", shed)
	}
	if r4 := s.ins.responses4xx.Value(); r4 != 1 {
		t.Errorf("responses_4xx = %d, want 1", r4)
	}
	// The request never held a worker slot: no latency family may move.
	snap := s.snapshotMetrics()
	for _, family := range []string{"queue_wait", "evaluate", "sweep", "fleet"} {
		if n := snap.LatencyUS[family].Count; n != 0 {
			t.Errorf("latency_us[%s].count = %d after a pure shed, want 0", family, n)
		}
	}
}

func TestShed504RecordsComputeLatency(t *testing.T) {
	cfg := tinyConfig()
	cfg.RequestTimeout = time.Millisecond // expires mid-evaluation
	s := New(exp.NewEnv(exp.QuickOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/evaluate",
		strings.NewReader(`{"app":"MPGdec"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "timeout-probe-9")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "timeout-probe-9" {
		t.Errorf("504 lost the request ID: got %q", got)
	}

	if s.ins.timeouts.Value() != 1 {
		t.Errorf("timeout_total = %d, want 1", s.ins.timeouts.Value())
	}
	if r5 := s.ins.responses5xx.Value(); r5 != 1 {
		t.Errorf("responses_5xx = %d, want 1", r5)
	}
	snap := s.snapshotMetrics()
	// The evaluation ran until the deadline canceled it: its (truncated)
	// compute time belongs in the evaluate family, and admission was
	// granted, so queue_wait observed too.
	if n := snap.LatencyUS["evaluate"].Count; n != 1 {
		t.Errorf("latency_us[evaluate].count = %d after 504, want 1", n)
	}
	if n := snap.LatencyUS["queue_wait"].Count; n != 1 {
		t.Errorf("latency_us[queue_wait].count = %d after 504, want 1", n)
	}
	// The other compute families saw nothing.
	for _, family := range []string{"sweep", "fleet"} {
		if n := snap.LatencyUS[family].Count; n != 0 {
			t.Errorf("latency_us[%s].count = %d, want 0", family, n)
		}
	}
}
