package slo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ramp/internal/obs"
)

// window is one window's traffic: counter increments plus `fast`
// latency observations at 10µs and `slow` ones at 10000µs.
type window struct {
	counters   map[string]int64
	fast, slow int64
}

// replay runs the windows through one fresh registry and returns the
// whole-run snapshot and the cumulative snapshot at every window
// boundary, the run-start baseline first — what a load.Runner hands
// Evaluate.
func replay(ws []window) (total obs.Snapshot, bounds []obs.Snapshot) {
	reg := obs.NewRegistry()
	bounds = append(bounds, reg.Snapshot())
	for _, w := range ws {
		for name, n := range w.counters {
			reg.Counter(name).Add(n)
		}
		for i := int64(0); i < w.fast; i++ {
			reg.Histogram("lat").Observe(10)
		}
		for i := int64(0); i < w.slow; i++ {
			reg.Histogram("lat").Observe(10000)
		}
		bounds = append(bounds, reg.Snapshot())
	}
	return reg.Snapshot(), bounds
}

// repeat returns n copies of w.
func repeat(n int, w window) []window {
	ws := make([]window, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

func rateObj() Objective {
	return Objective{
		Name: "shed-rate", Bad: []string{"shed"}, Total: "reqs", MaxRatio: 0.05,
		FastWindows: 2, SlowWindows: 4, FastBurn: 10, SlowBurn: 2,
	}
}

func TestRateObjectiveCompliant(t *testing.T) {
	total, windows := replay(repeat(6, window{counters: map[string]int64{"reqs": 100, "shed": 1}}))
	res, err := Evaluate([]Objective{rateObj()}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Breached {
		t.Errorf("1%% shed under a 5%% budget breached: %+v", r)
	}
	if math.Abs(r.Overall-0.01) > 1e-12 {
		t.Errorf("overall = %g, want 0.01", r.Overall)
	}
	if math.Abs(r.Burn-0.2) > 1e-12 {
		t.Errorf("burn = %g, want 0.2", r.Burn)
	}
}

func TestRateObjectiveBudgetExhausted(t *testing.T) {
	total, windows := replay([]window{{counters: map[string]int64{"reqs": 100, "shed": 20}}})
	res, err := Evaluate([]Objective{rateObj()}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Breached || !strings.Contains(res[0].Reason, "budget exhausted") {
		t.Errorf("20%% shed under a 5%% budget did not breach: %+v", res[0])
	}
}

// TestBurnGateNeedsBothWindows: a short spike trips the fast window but
// not the slow one — no breach; a sustained burn trips both.
func TestBurnGateNeedsBothWindows(t *testing.T) {
	quiet := map[string]int64{"reqs": 100, "shed": 0}
	spike := map[string]int64{"reqs": 100, "shed": 80}

	// 10 quiet windows, 2 spiking ones at the end: fast burn is huge,
	// slow burn (last 4: 2 quiet + 2 spike = 160/400 = 40% → burn 8)...
	// use a longer quiet tail so the slow window stays under its 2×.
	ws := append(repeat(2, window{counters: spike}), repeat(10, window{counters: quiet})...)
	// Spikes at the START: the fast window (last 2) is quiet now.
	o := rateObj()
	o.MaxRatio = 0.2 // keep the overall 160/1200 ≈ 13% inside budget
	total, windows := replay(ws)
	res, err := Evaluate([]Objective{o}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Breached {
		t.Errorf("old spike outside both windows breached: %+v", res[0])
	}

	// Sustained: every window sheds 80% → both windows burn 4× over a
	// 20% budget with FastBurn=3, SlowBurn=2.
	o2 := rateObj()
	o2.MaxRatio = 0.9 // overall 80% < 90%: compliance alone won't trip
	o2.FastBurn = 0.8 // measured burn is 0.8/0.9 ≈ 0.889 on both windows
	o2.SlowBurn = 0.8
	total, windows = replay(repeat(6, window{counters: spike}))
	res, err = Evaluate([]Objective{o2}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Breached || !strings.Contains(res[0].Reason, "burn rate") {
		t.Errorf("sustained burn did not trip the multi-window gate: %+v", res[0])
	}
}

func TestLatencyObjective(t *testing.T) {
	// 99 fast (10µs) + 1 slow (10000µs) per window: p99 sits right at
	// the boundary; with a 1000µs bound exactly 1% of events are bad.
	total, windows := replay(repeat(4, window{counters: map[string]int64{"reqs": 100}, fast: 99, slow: 1}))
	o := Objective{Name: "p95-lat", Hist: "lat", P: 0.95, MaxUS: 1000}
	res, err := Evaluate([]Objective{o}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Kind != "latency" {
		t.Errorf("kind = %q", r.Kind)
	}
	if math.Abs(r.Budget-0.05) > 1e-12 {
		t.Errorf("budget = %g, want 0.05", r.Budget)
	}
	if r.Breached {
		t.Errorf("1%% slow under a 5%% budget breached: %+v", r)
	}
	if math.Abs(r.Overall-0.01) > 1e-9 {
		t.Errorf("overall bad fraction = %g, want 0.01", r.Overall)
	}

	// Tighten the quantile to p99 with the same traffic: exactly at
	// budget, not over — still compliant. Then make half the traffic
	// slow: breach.
	total, windows = replay([]window{{counters: map[string]int64{"reqs": 100}, fast: 50, slow: 50}})
	res, err = Evaluate([]Objective{o}, total, windows)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Breached {
		t.Errorf("50%% slow under a 5%% budget did not breach: %+v", res[0])
	}
}

func TestEvaluateNoTraffic(t *testing.T) {
	res, err := Evaluate([]Objective{rateObj()}, obs.Snapshot{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Breached {
		t.Errorf("no traffic breached: %+v", res[0])
	}
}

func TestValidate(t *testing.T) {
	bad := []Objective{
		{},                            // no name
		{Name: "x"},                   // neither form
		{Name: "x", Hist: "h", P: 2},  // p out of range
		{Name: "x", Hist: "h", P: .9}, // no bound
		{Name: "x", Bad: []string{"b"}, Total: "t", MaxRatio: 1.5},
		{Name: "x", Hist: "h", P: .9, MaxUS: 10, Bad: []string{"b"}, Total: "t", MaxRatio: .1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, o)
		}
	}
	good := Objective{Name: "ok", Hist: "h", P: 0.99, MaxUS: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid objective rejected: %v", err)
	}
}

func TestParse(t *testing.T) {
	objs, err := Parse([]byte(`[
		{"name":"p99","hist":"load_latency_us","p":0.99,"max_us":200000},
		{"name":"shed","bad":["load_shed_total"],"total":"load_requests_total","max_ratio":0.05}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Kind() != "latency" || objs[1].Kind() != "rate" {
		t.Fatalf("parsed %+v", objs)
	}
	if _, err := Parse([]byte(`[{"name":"x","hist":"h","p":0.5,"max_us":1,"typo":true}]`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`[{"name":"x"}]`)); err == nil {
		t.Error("invalid objective accepted")
	}
	if _, err := Parse([]byte(`[] trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestBreachedAndTable(t *testing.T) {
	res := []Result{{Name: "a"}, {Name: "b", Breached: true, Reason: "why"}}
	if !Breached(res) {
		t.Error("Breached missed a breach")
	}
	if Breached(res[:1]) {
		t.Error("Breached false positive")
	}
	var sb strings.Builder
	WriteTable(&sb, res)
	out := sb.String()
	if !strings.Contains(out, "BREACH") || !strings.Contains(out, "why") {
		t.Errorf("table missing verdict:\n%s", out)
	}
}

// TestTailIsOneSubtraction is the three-window case a fold of
// per-window deltas got wrong: windows observing 0, 5 and 3 µs. Folding
// them bucket by bucket gave {1:1, 4:3} (all three samples ≤ 4 µs, p50
// 2.5, nothing above 4.5 µs); the tail is the newest boundary minus the
// baseline.
func TestTailIsOneSubtraction(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat")
	windows := []obs.Snapshot{reg.Snapshot()}
	for _, us := range []int64{0, 5, 3} {
		h.Observe(us)
		windows = append(windows, reg.Snapshot())
	}
	got := tail(windows, 3).Histograms["lat"]
	want := obs.HistogramSnapshot{Count: 3, Sum: 8, Buckets: map[string]int64{"1": 1, "2": 1, "4": 2, "8": 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tail over three windows = %+v, want %+v", got, want)
	}
	if p50 := got.Quantile(0.5); p50 != 3 {
		t.Errorf("tail p50 = %v, want 3", p50)
	}
	if f := got.FractionAbove(4.5); math.Abs(f-0.2917) > 1e-4 {
		t.Errorf("tail fraction above 4.5 µs = %v, want 0.2917", f)
	}
	// Asking for more windows than exist reads from the baseline.
	if long := tail(windows, 30).Histograms["lat"]; !reflect.DeepEqual(long, want) {
		t.Errorf("tail over 30 of 3 windows = %+v, want %+v", long, want)
	}
}

// TestTailsOverEveryWindowMatchWholeRun: when an objective's fast and
// slow windows cover the whole run, their burn rates are the whole-run
// burn bit for bit. Sparse runs (3–30 windows of 0–2 latency samples
// each) are where folding per-window histograms went wrong.
func TestTailsOverEveryWindowMatchWholeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for run := 0; run < 200; run++ {
		reg := obs.NewRegistry()
		lat := reg.Histogram("lat")
		reqs, shed := reg.Counter("reqs"), reg.Counter("shed")
		windows := []obs.Snapshot{reg.Snapshot()}
		nWin := 3 + rng.Intn(28)
		for w := 0; w < nWin; w++ {
			for n := rng.Intn(3); n > 0; n-- {
				lat.Observe(rng.Int63n(int64(1) << rng.Intn(12)))
			}
			sent := rng.Int63n(3)
			reqs.Add(sent)
			shed.Add(rng.Int63n(sent + 1))
			windows = append(windows, reg.Snapshot())
		}
		objs := []Objective{
			{Name: "lat", Hist: "lat", P: []float64{0.5, 0.9, 0.99}[rng.Intn(3)], MaxUS: float64(1 + rng.Intn(1000)),
				FastWindows: nWin, SlowWindows: nWin + rng.Intn(5)},
			{Name: "shed", Bad: []string{"shed"}, Total: "reqs", MaxRatio: 0.05,
				FastWindows: nWin, SlowWindows: nWin + rng.Intn(5)},
		}
		res, err := Evaluate(objs, reg.Snapshot(), windows)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			label := fmt.Sprintf("run %d (%d windows) %s", run, nWin, r.Name)
			if r.Windows != nWin {
				t.Fatalf("%s: Windows = %d, want %d", label, r.Windows, nWin)
			}
			if math.Float64bits(r.FastBurn) != math.Float64bits(r.Burn) || math.Float64bits(r.SlowBurn) != math.Float64bits(r.Burn) {
				t.Fatalf("%s: fast %v and slow %v burn over every window, whole-run burn %v", label, r.FastBurn, r.SlowBurn, r.Burn)
			}
		}
	}
}
