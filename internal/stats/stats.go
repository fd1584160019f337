// Package stats provides small statistics utilities shared by the
// simulator, power, thermal and reliability models: event counters,
// running means, quantiles and geometric means.
package stats

import (
	"fmt"
	"math"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by k.
func (c *Counter) Add(k uint64) { c.n += k }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Mean is a running (optionally weighted) arithmetic mean over float64
// samples. Add records samples with weight 1; AddWeighted records samples
// with an explicit weight, e.g. for time-weighted averaging.
type Mean struct {
	sum float64
	w   float64
	n   uint64
}

// Add records one sample with weight 1.
func (m *Mean) Add(x float64) { m.AddWeighted(x, 1) }

// AddWeighted records a sample with weight w (e.g. a time-weighted mean).
func (m *Mean) AddWeighted(x, w float64) {
	m.sum += x * w
	m.w += w
	m.n++
}

// Value returns the weighted mean of all samples, or 0 if no samples (or
// only zero-weight samples) were recorded.
func (m *Mean) Value() float64 {
	if m.w == 0 {
		return 0
	}
	return m.sum / m.w
}

// Count returns the number of samples recorded.
func (m *Mean) Count() uint64 { return m.n }

// Reset clears all samples.
func (m *Mean) Reset() { *m = Mean{} }

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted slice using
// linear interpolation. It panics if xs is empty or q is out of range.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v out of [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// it returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
