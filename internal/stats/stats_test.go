package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestMeanUnweighted(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatalf("empty mean = %v", m.Value())
	}
	for _, x := range []float64{1, 2, 3, 4} {
		m.Add(x)
	}
	if got := m.Value(); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	if m.Count() != 4 {
		t.Fatalf("count = %d, want 4", m.Count())
	}
	m.Reset()
	if m.Value() != 0 || m.Count() != 0 {
		t.Fatalf("reset mean not empty")
	}
}

func TestMeanWeighted(t *testing.T) {
	var m Mean
	m.AddWeighted(10, 1)
	m.AddWeighted(20, 3)
	want := (10.0 + 60.0) / 4.0
	if got := m.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted mean = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Median != 2.5 {
		t.Fatalf("median = %v", s.Median)
	}
	if s.FirstLast != [2]float64{4, 2} {
		t.Fatalf("firstlast = %v", s.FirstLast)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatalf("geomean of empty should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on non-positive value")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatalf("clamp broken")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1, 0) {
		t.Fatal("identical values must be equal")
	}
	if !AlmostEqual(100, 100.5, 0.01) {
		t.Fatal("0.5% off within 1% tolerance")
	}
	if AlmostEqual(100, 110, 0.01) {
		t.Fatal("10% off not within 1% tolerance")
	}
}

// Property: the mean of any non-empty sample lies within [min, max], and
// the summary's aggregates are internally consistent.
func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Median >= s.Min-1e-9 && s.Median <= s.Max+1e-9 &&
			s.P5 <= s.P95+1e-9 && s.N == len(clean)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clamp always lands inside the interval.
func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		c := Clamp(x, lo, hi)
		return c >= lo && c <= hi
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
