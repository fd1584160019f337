package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ramp/internal/exp"
)

// fleetBody is a small, fast fleet request used across the tests: the
// minimum population with every scenario knob engaged.
const fleetBody = `{"app":"gzip","chips":2000,"tquals_k":[400,370],"duty":0.8,"spares":1}`

func TestFleetEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	status, body := post(t, hs.URL+"/v1/fleet", fleetBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp FleetResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.App != "gzip" || resp.Chips != 2000 || resp.Seed != 1 || resp.HorizonYears != 30 {
		t.Errorf("normalized fields wrong: %+v", resp)
	}
	// 2 tquals x 4 scenarios (nominal, checkpoint, repair, both).
	if len(resp.Results) != 8 {
		t.Fatalf("got %d result rows, want 8", len(resp.Results))
	}
	for _, row := range resp.Results {
		if row.MeanYears <= 0 {
			t.Errorf("%g/%s: mean_years %g not positive", row.TqualK, row.Scenario, row.MeanYears)
		}
		prev := 1.0
		for k, s := range row.Survival {
			if s < 0 || s > prev {
				t.Fatalf("%g/%s: survival not monotone at bin %d", row.TqualK, row.Scenario, k)
			}
			prev = s
		}
	}
	// Rows are policy-major in request order; a lower qualification
	// temperature means higher assessed FIT, so its fleet cannot return
	// fewer parts than the 400 K policy under the same scenario.
	if resp.Results[0].Scenario != "nominal" || resp.Results[4].Scenario != "nominal" {
		t.Fatalf("unexpected row order: %+v", resp.Results)
	}
	if resp.Results[4].ReturnRate11 < resp.Results[0].ReturnRate11 {
		t.Errorf("tq370 returns %g < tq400 returns %g", resp.Results[4].ReturnRate11, resp.Results[0].ReturnRate11)
	}
}

func TestFleetResponseCache(t *testing.T) {
	s, hs := newTestServer(t)
	_, first := post(t, hs.URL+"/v1/fleet", fleetBody)
	misses := s.env.CacheStats().Misses
	_, second := post(t, hs.URL+"/v1/fleet", fleetBody)
	if first != second {
		t.Error("identical fleet requests returned different bodies")
	}
	if st := s.env.CacheStats(); st.Misses != misses {
		t.Errorf("cached fleet repeat re-simulated (misses %d -> %d)", misses, st.Misses)
	}
	// A different spelling of the same simulation hits the same key.
	_, third := post(t, hs.URL+"/v1/fleet",
		`{"app":"gzip","chips":2000,"seed":1,"tquals_k":[400,370],"duty":0.8,"spares":1,"horizon_years":30}`)
	if third != first {
		t.Error("normalized-equal fleet requests returned different bodies")
	}
}

func TestFleetValidation(t *testing.T) {
	_, hs := newTestServer(t)
	for _, tc := range []struct{ name, body string }{
		{"unknown app", `{"app":"nonesuch"}`},
		{"unknown field", `{"app":"gzip","chip":5}`},
		{"chips too small", `{"app":"gzip","chips":10}`},
		{"chips too large", `{"app":"gzip","chips":99000000}`},
		{"bad tqual", `{"app":"gzip","tquals_k":[100]}`},
		{"too many tquals", `{"app":"gzip","tquals_k":[400,399,398,397,396,395,394,393,392]}`},
		{"bad duty", `{"app":"gzip","duty":1.5}`},
		{"bad spares", `{"app":"gzip","spares":10}`},
		{"bad horizon", `{"app":"gzip","horizon_years":1000}`},
	} {
		status, body := post(t, hs.URL+"/v1/fleet", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
		}
	}
}

func TestFleetMetricsExposed(t *testing.T) {
	s, hs := newTestServer(t)
	post(t, hs.URL+"/v1/fleet", fleetBody)
	snap := s.snapshotMetrics()
	if snap.RequestsTotal["fleet"] != 1 {
		t.Errorf("requests_total[fleet] = %d, want 1", snap.RequestsTotal["fleet"])
	}
	if snap.LatencyUS["fleet"].Count != 1 {
		t.Errorf("latency_us[fleet].count = %d, want 1", snap.LatencyUS["fleet"].Count)
	}
}

// FuzzFleetRequest drives the full decode→normalize path with
// arbitrary JSON: it must never panic, and normalization must be
// idempotent — normalizing an already-normalized request reproduces the
// same cache key, so equal simulations always share one cache row.
func FuzzFleetRequest(f *testing.F) {
	f.Add(fleetBody)
	f.Add(`{"app":"gzip"}`)
	f.Add(`{"app":"twolf","chips":1000,"seed":18446744073709551615,"tquals_k":[250,500]}`)
	f.Add(`{}`)
	f.Add(`{"app":"gzip","freq_hz":4.5e9,"window":32,"alus":2,"fpus":1}`)
	f.Add(`not json at all`)
	f.Add(`{"app":"gzip","duty":1e-9,"spares":4,"horizon_years":100}`)
	s := New(exp.NewEnv(tinyOptions()), tinyConfig())
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/fleet", strings.NewReader(body))
		var req FleetRequest
		if err := decodeRequest(r, &req); err != nil {
			return
		}
		job1, err := s.normalizeFleet(&req)
		if err != nil {
			return
		}
		if job1.key == "" {
			t.Fatal("accepted request produced an empty cache key")
		}
		job2, err := s.normalizeFleet(&req)
		if err != nil {
			t.Fatalf("re-normalizing a normalized request failed: %v", err)
		}
		if job1.key != job2.key {
			t.Fatalf("normalization not idempotent: %q vs %q", job1.key, job2.key)
		}
	})
}
