package core

import (
	"fmt"
	"math"
	"time"

	"ramp/internal/check"
	"ramp/internal/floorplan"
)

// An assessment factors into two halves (Section 3.7). Each FIT is a
// budget scaled by λ(observed)/λ(qual): the budget and λ(qual) depend
// only on the qualification point, and λ(observed) only on the run. The
// Exposure records the run's half once; a Budget applies any
// qualification point's half to it with arithmetic alone.

// intervalMechanisms counts the mechanisms RAMP evaluates per interval:
// EM, SM and TDDB. Thermal cycling depends on the run-average
// temperature, so it is evaluated once per run.
const intervalMechanisms = int(TC)

// intervalRates holds one interval's EM, SM and TDDB failure rates for
// every structure.
type intervalRates [floorplan.NumStructures][intervalMechanisms]float64

// Exposure is the qualification-independent record of a run: each
// interval's duration and per-structure EM, SM and TDDB failure rates,
// the run-average temperatures and their thermal-cycling rates, the peak
// temperature and the total time. Every rate model RAMP needs for the
// run is evaluated when the exposure is recorded; Budget.Assess then
// derives the assessment at any qualification point without evaluating
// one. An Exposure is immutable and safe to share.
type Exposure struct {
	intervals []exposureInterval
	avgTempK  [floorplan.NumStructures]float64
	tcRate    [floorplan.NumStructures]float64
	maxTempK  float64
	timeSec   float64
}

// exposureInterval is one recorded interval.
type exposureInterval struct {
	durationSec float64
	rates       intervalRates
}

// NewExposure records a run of n intervals, in order; interval(i)
// returns interval i. The rate models are timed into t when it is
// non-nil. It returns an error if n is not positive or an interval is
// invalid (see Engine.Observe).
func NewExposure(p Params, n int, t *FITTimers, interval func(i int) Interval) (*Exposure, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: nothing observed")
	}
	x := &Exposure{intervals: make([]exposureInterval, n)}
	var sums tempSums
	for i := range x.intervals {
		iv := interval(i)
		rec := &x.intervals[i]
		if err := p.rates(&iv, t, &rec.rates); err != nil {
			return nil, err
		}
		rec.durationSec = iv.DurationSec
		temps := iv.temps()
		sums.add(iv.DurationSec, &temps)
	}
	x.avgTempK, x.tcRate = sums.averages(p, t)
	x.maxTempK, x.timeSec = sums.maxTempK, sums.timeSec
	return x, nil
}

// Assess applies the budget to an exposure: the assessment of the
// recorded run at the budget's qualification point, bitwise equal to
// streaming the same intervals through an Engine. It evaluates no rate
// model and allocates nothing.
//
//ramp:hot
func (b *Budget) Assess(x *Exposure) Assessment {
	var fitSum intervalRates
	for i := range x.intervals {
		rec := &x.intervals[i]
		b.fold(&fitSum, rec.durationSec, &rec.rates)
	}
	return b.assessment(&fitSum, &x.avgTempK, &x.tcRate, x.maxTempK, x.timeSec, len(x.intervals))
}

// rates validates one interval and evaluates its EM, SM and TDDB rate
// models for every structure into r, mechanism by mechanism so each
// model's evaluation times as one block when t is non-nil.
//
//ramp:hot
func (p Params) rates(iv *Interval, t *FITTimers, r *intervalRates) error {
	if iv.DurationSec <= 0 {
		return fmt.Errorf("core: non-positive interval duration %v", iv.DurationSec)
	}
	for s := range iv.Structures {
		c := &iv.Structures[s]
		if c.TempK <= 0 {
			return fmt.Errorf("core: non-positive temperature for %v", floorplan.Structure(s))
		}
		// The error above rejects the impossible; the debug checks also
		// reject the implausible (Celsius leaks, [0,1] violations).
		check.TempK("core.Params.rates", c.TempK)
		check.Probability("core.Params.rates.Activity", c.Activity)
		check.Probability("core.Params.rates.OnFraction", c.OnFraction)
	}
	for m := Mechanism(0); m < TC; m++ {
		var start time.Time
		if t != nil {
			start = time.Now()
		}
		for s := range iv.Structures {
			r[s][m] = p.Rate(m, iv.Structures[s])
		}
		if t != nil {
			t.counter(m).Add(time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// fold adds one interval of duration w to the time-weighted FIT sums:
// w·(Alloc·λ/λ_qual) for every structure and per-interval mechanism.
// It is RAMP's only FIT accumulation (Section 3.6), shared by the
// streaming Engine and Budget.Assess.
//
//ramp:hot
func (b *Budget) fold(sum *intervalRates, w float64, r *intervalRates) {
	for s := range sum {
		for m := range sum[s] {
			fit := b.Alloc[s][m] * r[s][m] / b.QualRate[m]
			check.NonNegative("core.Budget.fold", fit)
			sum[s][m] += w * fit
		}
	}
}

// assessment completes an assessment from time-weighted FIT sums: each
// per-interval mechanism's FIT is its sum over the run time, thermal
// cycling's comes from the run-average temperature's rate, and the
// total is their SOFR sum (Section 3.5).
//
//ramp:hot
func (b *Budget) assessment(fitSum *intervalRates, avgTempK, tcRate *[floorplan.NumStructures]float64, maxTempK, timeSec float64, n int) Assessment {
	a := Assessment{AvgTempK: *avgTempK, MaxTempK: maxTempK, Intervals: n, TimeSec: timeSec}
	for s := range a.FIT {
		for m := range fitSum[s] {
			a.FIT[s][m] = fitSum[s][m] / timeSec
		}
		a.FIT[s][TC] = b.Alloc[s][TC] * tcRate[s] / b.QualRate[TC]
		for _, fit := range a.FIT[s] {
			a.TotalFIT += fit
		}
	}
	if a.TotalFIT > 0 {
		a.MTTFHours = 1e9 / a.TotalFIT
		a.MTTFYears = a.MTTFHours / 8760
		check.Finite("core.Budget.assessment.MTTFHours", a.MTTFHours)
	} else {
		a.MTTFHours = math.Inf(1)
		a.MTTFYears = math.Inf(1)
	}
	check.NonNegative("core.Budget.assessment.TotalFIT", a.TotalFIT)
	return a
}

// tempSums accumulates the temperature side of a run: the total time,
// each structure's time-weighted temperature and the peak.
type tempSums struct {
	timeSec  float64
	tempSum  [floorplan.NumStructures]float64
	maxTempK float64
}

// add folds one validated interval of duration w and per-structure
// temperatures temps into the sums.
//
//ramp:hot
func (ts *tempSums) add(w float64, temps *[floorplan.NumStructures]float64) {
	for s, k := range temps {
		ts.tempSum[s] += w * k
		if k > ts.maxTempK {
			ts.maxTempK = k
		}
	}
	ts.timeSec += w
}

// averages returns each structure's run-average temperature and its
// thermal-cycling rate: the modelled cycle runs between the average and
// ambient (Section 3.6). The rate models are timed into t when it is
// non-nil.
func (ts *tempSums) averages(p Params, t *FITTimers) (avgTempK, tcRate [floorplan.NumStructures]float64) {
	var start time.Time
	if t != nil {
		start = time.Now()
	}
	for s := range avgTempK {
		avgTempK[s] = ts.tempSum[s] / ts.timeSec
		tcRate[s] = p.Rate(TC, Conditions{TempK: avgTempK[s]})
	}
	if t != nil {
		t.TC.Add(time.Since(start).Nanoseconds())
	}
	return avgTempK, tcRate
}
