package stats

import (
	"math"
	"testing"
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
