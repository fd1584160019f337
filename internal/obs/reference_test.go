package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// The map-walking histogram arithmetic as first written: each function
// reads or writes the trimmed le-keyed map directly. It is the oracle
// for the versions that go through cumulative and eachBucket.

func refLeBounds(h HistogramSnapshot) []int64 {
	bounds := make([]int64, 0, len(h.Buckets))
	for le := range h.Buckets {
		if le == "+Inf" {
			continue
		}
		if b, err := strconv.ParseInt(le, 10, 64); err == nil {
			bounds = append(bounds, b)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

func refBucketLow(ub int64) float64 {
	if ub <= 1 {
		return 0
	}
	return float64(ub) / 2
}

func refQuantile(h HistogramSnapshot, p float64) float64 {
	if h.Count <= 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cumBelow float64
	var last float64
	for _, ub := range refLeBounds(h) {
		cum := float64(h.Buckets[strconv.FormatInt(ub, 10)])
		if rank <= cum && cum > cumBelow {
			low := refBucketLow(ub)
			frac := (rank - cumBelow) / (cum - cumBelow)
			return low + frac*(float64(ub)-low)
		}
		cumBelow = cum
		last = float64(ub)
	}
	if last > 0 {
		return last
	}
	return float64(int64(1) << 62)
}

func refFractionAbove(h HistogramSnapshot, v float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	var below float64
	var cumBelow float64
	for _, ub := range refLeBounds(h) {
		cum := float64(h.Buckets[strconv.FormatInt(ub, 10)])
		if v >= float64(ub) {
			below = cum
			cumBelow = cum
			continue
		}
		low := refBucketLow(ub)
		in := cum - cumBelow
		if v > low && in > 0 {
			below = cumBelow + in*(v-low)/(float64(ub)-low)
		}
		break
	}
	frac := 1 - below/float64(h.Count)
	if frac < 0 {
		return 0
	}
	return frac
}

func refPrevCumAt(h HistogramSnapshot, ub int64, bounds []int64) int64 {
	if h.Count == 0 || len(bounds) == 0 {
		return 0
	}
	if ub < bounds[0] {
		return 0
	}
	if c, ok := h.Buckets[strconv.FormatInt(ub, 10)]; ok {
		return c
	}
	return h.Count
}

func refSub(h, prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	if d.Count <= 0 || len(h.Buckets) == 0 {
		return d
	}
	prevBounds := refLeBounds(prev)
	d.Buckets = make(map[string]int64)
	var wrote int64
	for _, ub := range refLeBounds(h) {
		le := strconv.FormatInt(ub, 10)
		cum := h.Buckets[le] - refPrevCumAt(prev, ub, prevBounds)
		if cum <= 0 {
			continue
		}
		d.Buckets[le] = cum
		wrote = cum
		if cum == d.Count {
			break
		}
	}
	if inf, ok := h.Buckets["+Inf"]; ok && wrote < d.Count {
		prevInf := prev.Count
		if c, ok := prev.Buckets["+Inf"]; ok {
			prevInf = c
		}
		if cum := inf - prevInf; cum > 0 {
			d.Buckets["+Inf"] = cum
		}
	}
	return d
}

func refSnapshot(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count == 0 {
		return s
	}
	s.Buckets = make(map[string]int64)
	var cum int64
	for i := 0; i < histogramBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum == 0 {
			continue
		}
		le := "+Inf"
		if i < histogramBuckets-1 {
			le = strconv.FormatInt(1<<i, 10)
		}
		s.Buckets[le] = cum
		if cum == s.Count {
			break
		}
	}
	return s
}

func refWritePromHistogram(w io.Writer, family, labels string, h HistogramSnapshot) {
	bounds := make([]string, 0, len(h.Buckets))
	for le := range h.Buckets {
		if le != "+Inf" {
			bounds = append(bounds, le)
		}
	}
	sort.Slice(bounds, func(i, j int) bool {
		a, _ := strconv.ParseInt(bounds[i], 10, 64)
		b, _ := strconv.ParseInt(bounds[j], 10, 64)
		return a < b
	})
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, le := range bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", family, labels, sep, le, h.Buckets[le])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", family, labels, sep, h.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %d\n", family, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", family, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", family, labels, h.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, h.Count)
	}
}

// perfbenchDelta is perfbench's histDelta: a bucket-by-bucket
// subtraction that keeps after's keys, zero counts and "+Inf" included.
func perfbenchDelta(before, after HistogramSnapshot) HistogramSnapshot {
	lowest := int64(-1)
	for le := range before.Buckets {
		if b, err := strconv.ParseInt(le, 10, 64); err == nil && (lowest < 0 || b < lowest) {
			lowest = b
		}
	}
	d := HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Buckets: make(map[string]int64)}
	for le, c := range after.Buckets {
		prev, ok := before.Buckets[le]
		if !ok {
			b, err := strconv.ParseInt(le, 10, 64)
			if err != nil || (lowest >= 0 && b > lowest) {
				prev = before.Count
			}
		}
		d.Buckets[le] = c - prev
	}
	return d
}

// sample draws an observation from 0 µs to about 2^40 µs, log-uniform
// in magnitude so that every bucket up to 2^41 sees traffic.
func sample(rng *rand.Rand) int64 {
	return rng.Int63n(int64(1) << rng.Intn(41))
}

// probes are the quantiles and thresholds each histogram is read at:
// the ends, the common SLO points, random draws and, for thresholds,
// bucket edges and the points either side of them.
func probes(rng *rand.Rand) (ps, vs []float64) {
	ps = []float64{-0.5, 0, 0.5, 0.9, 0.95, 0.99, 1, 1.5}
	for i := 0; i < 8; i++ {
		ps = append(ps, rng.Float64())
	}
	vs = []float64{-1, 0, 0.5, math.NaN()}
	for i := 0; i < 8; i++ {
		e := float64(int64(1) << rng.Intn(42))
		vs = append(vs, e, e-0.25, e+0.25, e*1.5, rng.Float64()*e)
	}
	return ps, vs
}

// checkReads holds Quantile and FractionAbove to the oracle bit for bit.
func checkReads(t *testing.T, label string, h HistogramSnapshot, ps, vs []float64) {
	t.Helper()
	for _, p := range ps {
		if got, want := h.Quantile(p), refQuantile(h, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Quantile(%v) = %v, oracle %v (%v)", label, p, got, want, h)
		}
	}
	for _, v := range vs {
		if got, want := h.FractionAbove(v), refFractionAbove(h, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: FractionAbove(%v) = %v, oracle %v (%v)", label, v, got, want, h)
		}
	}
}

// TestHistogramMatchesReference holds snapshot, sub, Quantile,
// FractionAbove and WritePromHistogram to the map-walking oracle on
// seeded random histograms: every snapshot of a growing histogram,
// every delta between two of them (trimmed earlier snapshots included),
// and perfbench-style deltas that keep zero-count leading keys.
func TestHistogramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	trials := 250
	if testing.Short() {
		trials = 50 // the race lane
	}
	zeroKeys := 0 // perfbench-style deltas with a zero-count key
	for trial := 0; trial < trials; trial++ {
		h := &Histogram{}
		snaps := []HistogramSnapshot{h.snapshot()}
		for k := 0; k < 4; k++ {
			for n := rng.Intn(6) * rng.Intn(12); n > 0; n-- {
				h.Observe(sample(rng))
			}
			got, want := h.snapshot(), refSnapshot(h)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: snapshot %v, oracle %v", trial, got, want)
			}
			snaps = append(snaps, got)
		}
		ps, vs := probes(rng)
		for j, cur := range snaps {
			label := fmt.Sprintf("trial %d snapshot %d", trial, j)
			checkReads(t, label, cur, ps, vs)
			var got, want bytes.Buffer
			WritePromHistogram(&got, "h", `route="x"`, cur)
			refWritePromHistogram(&want, "h", `route="x"`, cur)
			if got.String() != want.String() {
				t.Fatalf("%s: WritePromHistogram\n%s\noracle\n%s", label, got.String(), want.String())
			}
			for i, prev := range snaps[:j] {
				label := fmt.Sprintf("trial %d delta %d−%d", trial, j, i)
				d, rd := cur.sub(prev), refSub(cur, prev)
				if !reflect.DeepEqual(d, rd) {
					t.Fatalf("%s: sub %v, oracle %v", label, d, rd)
				}
				checkReads(t, label, d, ps, vs)
				pd := perfbenchDelta(prev, cur)
				for _, n := range pd.Buckets {
					if n == 0 {
						zeroKeys++
						break
					}
				}
				checkReads(t, label+" (perfbench)", pd, ps, vs)
			}
		}
	}
	if zeroKeys == 0 {
		t.Fatal("no perfbench-style delta kept a zero-count key")
	}
	t.Logf("%d perfbench-style deltas kept a zero-count key", zeroKeys)
}
