package core

import (
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/obs"
)

// TestObserveTimedBitwiseIdentical proves the per-mechanism FIT timers
// are observational only: an exposure recorded with timers attached
// assesses bitwise-identically to the untimed exposure of the same
// interval stream, at every qualification point.
func TestObserveTimedBitwiseIdentical(t *testing.T) {
	fp := floorplan.R10000Like()
	ivs := variedIntervals(7)
	plain := recordExposure(t, ivs, nil)
	timed := recordExposure(t, ivs, NewFITTimers(obs.NewRegistry()))
	for _, tq := range []float64{325, 347.5, 370, 400} {
		q := qual()
		q.TqualK = tq
		b, err := NewBudget(fp, params(), q)
		if err != nil {
			t.Fatal(err)
		}
		if pa, ta := b.Assess(plain), b.Assess(timed); pa != ta {
			t.Errorf("T_qual %v: timed assessment diverges from untimed:\nplain: %+v\ntimed: %+v", tq, pa, ta)
		}
	}
}

// TestFITTimersAccumulate checks the timers record time for every
// mechanism, thermal cycling included, on each exposure recorded with
// them.
func TestFITTimersAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	timers := NewFITTimers(reg)
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(360)
	}
	ivs := make([]Interval, 50)
	for i := range ivs {
		ivs[i] = iv
	}
	recordExposure(t, ivs, timers)
	names := []string{
		"core_fit_compute_ns_em", "core_fit_compute_ns_sm",
		"core_fit_compute_ns_tddb", "core_fit_compute_ns_tc",
	}
	for _, name := range names {
		if reg.Counter(name).Value() <= 0 {
			t.Errorf("%s recorded no time", name)
		}
	}
	before := reg.Counter("core_fit_compute_ns_em").Value()
	recordExposure(t, ivs[:1], timers)
	if reg.Counter("core_fit_compute_ns_em").Value() <= before {
		t.Error("a second exposure added no time")
	}
}

func TestNewFITTimersNilRegistry(t *testing.T) {
	if NewFITTimers(nil) != nil {
		t.Error("nil registry should produce nil timers (untimed fast path)")
	}
}
