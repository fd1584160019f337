package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"ramp/internal/obs"
)

func TestRequestStreamIsSeeded(t *testing.T) {
	a, b := requestStream(7, 4000), requestStream(7, 4000)
	if scheduleHash(a) != scheduleHash(b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if scheduleHash(a) == scheduleHash(requestStream(8, 4000)) {
		t.Fatal("a different seed gave the same request stream")
	}
	counts := make(map[string]int)
	for _, q := range a {
		counts[q.route]++
	}
	// evaluate=8, sweep=1, fleet=1: 3200/400/400 expected.
	if counts["evaluate"] < 3000 || counts["sweep"] < 300 || counts["fleet"] < 300 {
		t.Fatalf("route mix %v is not 8:1:1", counts)
	}
}

func TestScheduleIsConstantRate(t *testing.T) {
	if due(0) != 0 || due(serveRate) != time.Second || due(1) != time.Second/serveRate {
		t.Fatalf("due(0)=%v due(1)=%v due(%d)=%v", due(0), due(1), serveRate, due(serveRate))
	}
}

func TestTqualGridIsSeeded(t *testing.T) {
	a, b, c := tqualGrid(3), tqualGrid(3), tqualGrid(4)
	if len(a) != analysisTquals {
		t.Fatalf("grid has %d points, want %d", len(a), analysisTquals)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, point %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 325 || a[i] > 400 || (i > 0 && a[i] <= a[i-1]) {
			t.Fatalf("point %d = %g: want ascending within [325, 400] K", i, a[i])
		}
	}
	if same {
		t.Fatal("a different seed gave the same T_qual grid")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if seen[m.name] {
				t.Errorf("metric name %q listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestResultCarriesExactlyTheModesMetrics(t *testing.T) {
	r := &run{traced: true, attempted: 1, metrics: map[string]metric{"fleet.run_s": {0.5, "s"}}}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["fleet.run_s"].Value != 0.5 || res.Metrics["sim.cycles"].Unit != "count" {
		t.Fatalf("traced result: %v", res.Metrics)
	}
	r = &run{attempted: 1, metrics: map[string]metric{"setup_s": {1, "s"}}}
	if _, err := r.result(); err == nil {
		t.Fatal("an untraced result missing end-to-end metrics was accepted")
	}
	for _, m := range endToEnd {
		r.set(m.name, m.unit, 1)
	}
	if res, err := r.result(); err != nil || len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("untraced result %+v, %v", res, err)
	}
}

func TestUnknownWorkloadPrintsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := mainErr([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// ms is a span boundary in milliseconds.
func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// TestLedgerArithmetic pins self time on a synthetic span set: a root
// with two sequential children, one of which has a child of its own.
func TestLedgerArithmetic(t *testing.T) {
	spans := []span{
		{name: "pass", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 0, start: ms(50), end: ms(90)},
		{name: "b.inner", parent: 2, start: ms(60), end: ms(70)},
		{name: "a", parent: 0, start: ms(92), end: ms(95)}, // a name repeats: self times add
	}
	l := newLedger(spans)
	want := map[string]time.Duration{unattributed: ms(27), "a": ms(33), "b": ms(30), "b.inner": ms(10)}
	if len(l.parts) != len(want) {
		t.Fatalf("parts %v, want %v", l.parts, want)
	}
	for n, d := range want {
		if l.parts[n] != d {
			t.Errorf("%s: self %v, want %v", n, l.parts[n], d)
		}
	}
	if l.total != ms(100) || l.sum() != ms(100) {
		t.Fatalf("total %v, parts sum %v, want 100ms both", l.total, l.sum())
	}
}

// TestLedgerCoverageIsAUnion: children that overlap (or stick out of
// their parent) are subtracted once, as the union of their intervals
// clipped to the parent.
func TestLedgerCoverageIsAUnion(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "x", parent: 0, start: ms(10), end: ms(40)},
		{name: "y", parent: 0, start: ms(30), end: ms(60)},
		{name: "z", parent: 0, start: ms(90), end: ms(120)},
	}
	if got := newLedger(spans).parts[unattributed]; got != ms(40) {
		t.Fatalf("root self time %v, want 40ms (100 - [10,60] - [90,100])", got)
	}
}

func TestLedgerTracksSumToTheirRoots(t *testing.T) {
	// Two connection tracks, rebased into one slice.
	track := []span{
		{name: "serve.conn", parent: -1, start: ms(0), end: ms(50)},
		{name: "serve.evaluate", parent: 0, start: ms(5), end: ms(10)},
	}
	spans := append(rebase(track, 0), rebase(track, len(track))...)
	l := newLedger(spans)
	if l.total != ms(100) || l.sum() != ms(100) || l.parts["serve.evaluate"] != ms(10) || l.parts[unattributed] != ms(90) {
		t.Fatalf("ledger %v total %v", l.parts, l.total)
	}
	if spans[3].parent != 2 {
		t.Fatalf("rebased parent %d, want 2", spans[3].parent)
	}
}

func TestLaneLedgerFollowsEvaluateTracks(t *testing.T) {
	ev := func(name string, id, parent, track uint64, start, dur int) obs.SpanEvent {
		return obs.SpanEvent{Name: name, ID: id, Parent: parent, Track: track, Start: ms(start), Dur: ms(dur)}
	}
	events := []obs.SpanEvent{
		ev("sim.warmup", 3, 2, 10, 1, 20),
		ev("exp.fixedpoint", 5, 4, 10, 31, 5),
		ev("thermal.sinkpass", 4, 2, 10, 30, 10),
		ev("exp.evaluate", 2, 1, 10, 0, 50), // parent 1 is the sweep, on another track
		ev("drm.sweep", 1, 0, 9, 0, 60),
	}
	l := laneLedger(events)
	want := map[string]time.Duration{"exp.evaluate": ms(20), "sim.warmup": ms(20), "thermal.sinkpass": ms(5), "exp.fixedpoint": ms(5)}
	for n, d := range want {
		if l.parts[n] != d {
			t.Errorf("%s: %v, want %v", n, l.parts[n], d)
		}
	}
	if l.total != ms(50) || l.sum() != ms(50) || len(l.parts) != len(want) {
		t.Fatalf("lane %v total %v", l.parts, l.total)
	}
}

func TestHistDeltaFillsOmittedBuckets(t *testing.T) {
	// before: 2 obs in (2,4], 1 in (4,8]; after adds 3 in (8,16], 1 in (1,2].
	before := obs.HistogramSnapshot{Count: 3, Sum: 13, Buckets: map[string]int64{"4": 2, "8": 3}}
	after := obs.HistogramSnapshot{Count: 7, Sum: 50, Buckets: map[string]int64{"2": 1, "4": 3, "8": 4, "16": 7, "+Inf": 7}}
	d := histDelta(before, after)
	want := map[string]int64{"2": 1, "4": 1, "8": 1, "16": 4, "+Inf": 4}
	if d.Count != 4 || d.Sum != 37 {
		t.Fatalf("count %d sum %d", d.Count, d.Sum)
	}
	for le, c := range want {
		if d.Buckets[le] != c {
			t.Errorf("bucket %s: %d, want %d", le, d.Buckets[le], c)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}
