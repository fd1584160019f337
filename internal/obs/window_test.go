package obs

import (
	"math"
	"testing"
	"time"
)

// synthetic histogram: 2 obs in [0,1), 2 in [1,2), 4 in [2,4), 2 in [4,8).
func synthHist() HistogramSnapshot {
	return HistogramSnapshot{
		Count: 10, Sum: 30,
		Buckets: map[string]int64{"1": 2, "2": 4, "4": 8, "8": 10},
	}
}

func TestQuantileInterpolationExact(t *testing.T) {
	h := synthHist()
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 0},     // rank 0: lower edge of the first bucket
		{0.2, 1},   // rank 2: exactly the first bucket's upper edge
		{0.4, 2},   // rank 4: upper edge of [1,2)
		{0.5, 2.5}, // rank 5: 1/4 into [2,4)
		{0.8, 4},   // rank 8: upper edge of [2,4)
		{0.9, 6},   // rank 9: halfway into [4,8)
		{1, 8},     // rank 10: top of the last occupied bucket
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %g, want NaN", got)
	}
	h := synthHist()
	if got := h.Quantile(-1); math.Abs(got) > 1e-12 {
		t.Errorf("Quantile(-1) = %g, want 0 (clamped)", got)
	}
	if got := h.Quantile(2); math.Abs(got-8) > 1e-12 {
		t.Errorf("Quantile(2) = %g, want 8 (clamped)", got)
	}
	// All mass beyond the finite bounds saturates at the largest bound.
	inf := HistogramSnapshot{Count: 4, Buckets: map[string]int64{"16": 2, "+Inf": 4}}
	if got := inf.Quantile(0.99); math.Abs(got-16) > 1e-12 {
		t.Errorf("catch-all Quantile = %g, want 16 (saturated)", got)
	}
}

func TestQuantileMatchesObservations(t *testing.T) {
	// A real histogram over 1..1000: the p50 estimate must land within
	// the log2 bucket containing the true median.
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	snap := h.snapshot()
	p50 := snap.Quantile(0.5)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %g, want within the bucket containing 500 ([256,1024))", p50)
	}
	p100 := snap.Quantile(1)
	if p100 < 1000 || p100 > 1024 {
		t.Errorf("p100 = %g, want in [1000, 1024]", p100)
	}
}

func TestFractionAbove(t *testing.T) {
	h := synthHist()
	cases := []struct {
		v    float64
		want float64
	}{
		{0, 0.8},  // 2 of 10 are in [0,1) with interpolated mass 0 at edge... exact: below=0 at v=0 within first bucket, so 1-0.2*0 — see pinned value
		{2, 0.6},  // cum at 2 is 4
		{3, 0.4},  // 4 + half of [2,4)'s 4 = 6 below
		{8, 0},    // everything is ≤ 8
		{100, 0},  // beyond every bucket
		{-1, 1.0}, // below every bucket
	}
	for _, tc := range cases {
		got := h.FractionAbove(tc.v)
		want := tc.want
		if tc.v == 0 {
			// v=0 sits at the first bucket's lower edge: nothing is
			// interpolated below it, so everything counts as above.
			want = 1
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("FractionAbove(%g) = %g, want %g", tc.v, got, want)
		}
	}
	var empty HistogramSnapshot
	if got := empty.FractionAbove(1); got != 0 {
		t.Errorf("empty FractionAbove = %g, want 0", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs").Add(10)
	reg.Gauge("inflight").Set(3)
	reg.Histogram("lat").Observe(5)
	prev := reg.Snapshot()

	reg.Counter("reqs").Add(7)
	reg.Gauge("inflight").Set(1)
	reg.Histogram("lat").Observe(100)
	reg.Counter("fresh").Add(2) // registered mid-flight
	cur := reg.Snapshot()

	d := cur.Delta(prev)
	if d.Counters["reqs"] != 7 {
		t.Errorf("counter delta = %d, want 7", d.Counters["reqs"])
	}
	if d.Counters["fresh"] != 2 {
		t.Errorf("mid-flight counter delta = %d, want 2", d.Counters["fresh"])
	}
	if d.Gauges["inflight"] != 1 {
		t.Errorf("gauge delta carries latest = %d, want 1", d.Gauges["inflight"])
	}
	dh := d.Histograms["lat"]
	if dh.Count != 1 || dh.Sum != 100 {
		t.Errorf("histogram delta count=%d sum=%d, want 1/100", dh.Count, dh.Sum)
	}
	// The delta histogram holds only the new observation (100 lands in
	// the [64,128) bucket, upper bound 128).
	if q := dh.Quantile(0.5); q < 64 || q > 128 {
		t.Errorf("delta histogram p50 = %g, want within [64,128]", q)
	}
}

// TestHistogramDeltaTrimmedPrev exercises the snapshot trim: a previous
// snapshot that saturated early (and therefore omitted trailing bounds)
// must still delta correctly.
func TestHistogramDeltaTrimmedPrev(t *testing.T) {
	prev := HistogramSnapshot{Count: 5, Sum: 0, Buckets: map[string]int64{"1": 5}}
	cur := HistogramSnapshot{Count: 9, Sum: 12, Buckets: map[string]int64{"1": 5, "2": 9}}
	d := cur.sub(prev)
	if d.Count != 4 || d.Sum != 12 {
		t.Fatalf("delta count=%d sum=%d, want 4/12", d.Count, d.Sum)
	}
	if d.Buckets["2"] != 4 {
		t.Errorf("delta bucket le=2 = %d, want 4", d.Buckets["2"])
	}
	if _, ok := d.Buckets["1"]; ok {
		t.Errorf("delta bucket le=1 should be omitted (zero)")
	}
}

// fakeClock yields t0, t0+1s, t0+2s, ... on successive calls.
func fakeClock() func() time.Time {
	t0 := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * time.Second)
		n++
		return t
	}
}

func TestWindowRingAndRates(t *testing.T) {
	reg := NewRegistry()
	w := NewWindow(2, fakeClock())
	w.Prime(reg.Snapshot()) // t=0

	reg.Counter("reqs").Add(10)
	d1 := w.Observe(reg) // t=1
	if d1.Seq != 1 || d1.Delta.Counters["reqs"] != 10 {
		t.Fatalf("first delta = %+v", d1)
	}
	if r := d1.Rate("reqs"); math.Abs(r-10) > 1e-9 {
		t.Errorf("window rate = %g, want 10/s", r)
	}

	reg.Counter("reqs").Add(20)
	w.Observe(reg) // t=2
	reg.Counter("reqs").Add(30)
	d3 := w.Observe(reg) // t=3
	if d3.Delta.Counters["reqs"] != 30 {
		t.Errorf("third delta = %d, want 30", d3.Delta.Counters["reqs"])
	}

	// Capacity 2: the first delta was evicted.
	all := w.Deltas()
	if len(all) != 2 || all[0].Seq != 2 || all[1].Seq != 3 {
		t.Fatalf("ring = %+v, want seqs [2 3]", all)
	}
	if got := w.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	// Retained rate: (20+30) events over 2 seconds.
	if r := w.Rate("reqs"); math.Abs(r-25) > 1e-9 {
		t.Errorf("retained rate = %g, want 25/s", r)
	}
}

func TestWindowUnprimedFirstAdvance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(5)
	w := NewWindow(4, fakeClock())
	d := w.Observe(reg)
	if d.Delta.Counters["c"] != 5 {
		t.Errorf("unprimed first delta = %d, want 5 (vs zero baseline)", d.Delta.Counters["c"])
	}
	if d.Seconds() != 0 {
		t.Errorf("unprimed first window length = %gs, want 0 (primed at first advance)", d.Seconds())
	}
}
