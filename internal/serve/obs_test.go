package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/obs"
)

// syncBuffer makes a bytes.Buffer safe to read from the test goroutine
// while the server goroutine is still logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	_, hs := newTestServer(t)

	// No inbound ID: the server mints one.
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(gen, "ramp-") {
		t.Errorf("generated request ID = %q, want ramp- prefix", gen)
	}

	// A sane inbound ID is honored verbatim.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "client-abc.123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc.123" {
		t.Errorf("inbound request ID not echoed: got %q", got)
	}

	// A hostile inbound ID (too long) is replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "ramp-") {
		t.Errorf("oversized inbound ID should be replaced, got %q", got)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abc-123", true},
		{"A_b.C~", true},
		{"", false},
		{"has space", false},
		{"tab\there", false},
		{"café", false},
		{strings.Repeat("y", maxRequestIDLen), true},
		{strings.Repeat("y", maxRequestIDLen+1), false},
	}
	for _, c := range cases {
		if got := sanitizeRequestID(c.id); got != c.ok {
			t.Errorf("sanitizeRequestID(%q) = %v, want %v", c.id, got, c.ok)
		}
	}
}

// TestRequestIDOnShedResponses pins the middleware ordering: the echo
// header is set before the handler runs, so even 429 load-sheds (which
// write through writeJobError, not the success path) carry it.
func TestRequestIDOnShedResponses(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 0
	s := New(exp.NewEnv(tinyOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	s.pool.admit <- struct{}{} // saturate admission
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/evaluate", strings.NewReader(`{"app":"twolf"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "shed-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-s.pool.admit
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "shed-probe-1" {
		t.Errorf("429 response lost the request ID: got %q", got)
	}
}

func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	cfg := tinyConfig()
	cfg.Log = obs.NewLogger(&buf, slog.LevelInfo, true)
	s := New(exp.NewEnv(tinyOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "log-probe-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log is not one JSON line: %v (%q)", err, line)
	}
	if entry["request_id"] != "log-probe-7" ||
		entry["method"] != http.MethodGet ||
		entry["path"] != "/v1/healthz" ||
		entry["status"] != float64(http.StatusOK) {
		t.Errorf("access log fields wrong: %v", entry)
	}
	if d, ok := entry["dur_ms"].(float64); !ok || d < 0 {
		t.Errorf("access log duration missing/negative: %v", entry["dur_ms"])
	}
}

// TestRequestSpans checks a server over an instrumented env records one
// serve.request span per request, annotated with status and request ID.
func TestRequestSpans(t *testing.T) {
	tr := obs.NewTracer()
	env := exp.NewEnv(tinyOptions()).Instrument(tr, obs.NewRegistry())
	s := New(env, tinyConfig())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "span-probe-3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var reqSpans []obs.SpanEvent
	for _, ev := range tr.Events() {
		if ev.Name == "serve.request" {
			reqSpans = append(reqSpans, ev)
		}
	}
	if len(reqSpans) != 1 {
		t.Fatalf("serve.request spans = %d, want 1", len(reqSpans))
	}
	attrs := map[string]any{}
	for _, a := range reqSpans[0].Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["path"] != "/v1/healthz" || attrs["request_id"] != "span-probe-3" {
		t.Errorf("span attrs wrong: %v", attrs)
	}
	if attrs["status"] != int64(http.StatusOK) {
		t.Errorf("span status = %v, want 200", attrs["status"])
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	env := exp.NewEnv(tinyOptions()).Instrument(tr, reg)
	s := New(env, tinyConfig())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf"}`); status != http.StatusOK {
		t.Fatalf("evaluate: status %d, body %s", status, body)
	}

	// Default stays JSON.
	status, body := get(t, hs.URL+"/metrics")
	if status != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("default /metrics should be JSON: status %d, body %.80s", status, body)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pipeline == nil || snap.Pipeline.Counters[exp.MetricEvaluations] != 1 {
		t.Errorf("instrumented JSON snapshot missing pipeline section: %+v", snap.Pipeline)
	}

	// ?format=prom switches to text exposition.
	status, body = get(t, hs.URL+"/metrics?format=prom")
	if status != http.StatusOK {
		t.Fatalf("prom scrape: status %d", status)
	}
	for _, want := range []string{
		"# TYPE rampserve_requests_total counter",
		`rampserve_requests_total{route="evaluate"} 1`,
		`rampserve_responses_total{class="2xx"}`,
		"# TYPE rampserve_latency_us histogram",
		`rampserve_latency_us_bucket{route="evaluate",le="+Inf"} 1`,
		`rampserve_latency_us_count{route="evaluate"} 1`,
		"# TYPE rampserve_cache_misses_total counter",
		"rampserve_cache_misses_total 1",
		// Pipeline registry rides along under the ramp_ prefix.
		"# TYPE ramp_" + exp.MetricEvaluations + " counter",
		"ramp_" + exp.MetricEvaluations + " 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Accept: text/plain also negotiates the text format.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 64)
	n, _ := resp.Body.Read(b)
	resp.Body.Close()
	if !strings.HasPrefix(string(b[:n]), "# TYPE") {
		t.Errorf("Accept: text/plain should negotiate prom text, got %q", string(b[:n]))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("prom content type = %q", ct)
	}
}

// instrumentSurfaces returns the start of the Prometheus sample line
// one server instrument renders as, and the JSON /metrics group and key
// it appears under (key is empty for names published at the top level).
func instrumentSurfaces(name string) (sample, group, key string) {
	for _, f := range []struct{ prefix, group, family, label string }{
		{"requests_", "requests_total", "rampserve_requests_total", "route"},
		{"responses_", "responses_total", "rampserve_responses_total", "class"},
		{"latency_us_", "latency_us", "rampserve_latency_us_count", "route"},
	} {
		if k, ok := strings.CutPrefix(name, f.prefix); ok {
			return fmt.Sprintf("%s{%s=%q} ", f.family, f.label, k), f.group, k
		}
	}
	return "rampserve_" + name + " ", name, ""
}

// TestEveryServerInstrumentRendersEverywhere is the server-registry half
// of the instrument audit (obs_coverage_test.go covers the pipeline
// registry): after one request per route, every instrument in the
// server's own registry must appear in a /v1/metrics/stream frame, in
// the JSON /metrics document and in the Prometheus scrape. The names
// come from the registry, so an instrument added to it is covered with
// no test edit, and one the prefix-derived rendering drops fails here.
func TestEveryServerInstrumentRendersEverywhere(t *testing.T) {
	s, hs := newTestServer(t)
	for _, req := range []struct{ path, body string }{
		{"/v1/evaluate", `{"app":"twolf"}`},
		{"/v1/sweep", `{"app":"twolf","adaptation":"DVS","tquals_k":[400]}`},
		{"/v1/fleet", `{"app":"twolf","chips":1000,"seed":1}`},
	} {
		if status, body := post(t, hs.URL+req.path, req.body); status != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", req.path, status, body)
		}
	}
	if status, _ := get(t, hs.URL+"/v1/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	_, frames := readStreamFrames(t, hs.URL, "window=50ms&n=1&format=ndjson")
	if len(frames) != 1 {
		t.Fatalf("stream sent %d frames, want 1", len(frames))
	}
	delta := frames[0].Delta
	status, body := get(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode /metrics JSON: %v", err)
	}
	status, scrape := get(t, hs.URL+"/metrics?format=prom")
	if status != http.StatusOK {
		t.Fatalf("prom scrape: status %d", status)
	}

	snap := s.reg.Snapshot()
	streamed := map[string]bool{}
	for name := range snap.Counters {
		_, streamed[name] = delta.Counters[name]
	}
	for name := range snap.Gauges {
		_, streamed[name] = delta.Gauges[name]
	}
	for name := range snap.Histograms {
		_, streamed[name] = delta.Histograms[name]
	}
	if len(streamed) < 17 {
		t.Fatalf("server registry holds %d instruments, want at least 17: %v", len(streamed), streamed)
	}
	for name, inFrame := range streamed {
		if !inFrame {
			t.Errorf("%q missing from the /v1/metrics/stream frame", name)
		}
		sample, group, key := instrumentSurfaces(name)
		raw, ok := doc[group]
		if ok && key != "" {
			var members map[string]json.RawMessage
			ok = json.Unmarshal(raw, &members) == nil && members[key] != nil
		}
		if !ok {
			t.Errorf("%q missing from the /metrics JSON document (want %s[%q])", name, group, key)
		}
		if !strings.Contains(scrape, "\n"+sample) {
			t.Errorf("%q missing from the Prometheus scrape (want a line starting %q)", name, sample)
		}
	}
}
