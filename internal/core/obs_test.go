package core

import (
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/obs"
)

// TestObserveTimedBitwiseIdentical proves the per-mechanism FIT timers
// are observational only: an engine with timers attached produces a
// bitwise-identical assessment to the untimed engine over the same
// interval stream.
func TestObserveTimedBitwiseIdentical(t *testing.T) {
	fp := floorplan.R10000Like()
	plain := MustNewEngine(fp, params(), qual())
	timed := MustNewEngine(fp, params(), qual())
	timed.SetTimers(NewFITTimers(obs.NewRegistry()))
	for _, iv := range variedIntervals(7) {
		if err := plain.Observe(iv); err != nil {
			t.Fatal(err)
		}
		if err := timed.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	pa := plain.MustAssess()
	ta := timed.MustAssess()
	if pa != ta {
		t.Errorf("timed assessment diverges from untimed:\nplain: %+v\ntimed: %+v", pa, ta)
	}
}

// TestFITTimersAccumulate checks the timers actually record time and
// survive Reset.
func TestFITTimersAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	e := MustNewEngine(floorplan.R10000Like(), params(), qual())
	e.SetTimers(NewFITTimers(reg))
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(360)
	}
	for i := 0; i < 50; i++ {
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	e.MustAssess()
	for _, name := range []string{
		"core_fit_compute_ns_em", "core_fit_compute_ns_sm",
		"core_fit_compute_ns_tddb", "core_fit_compute_ns_tc",
	} {
		if reg.Counter(name).Value() <= 0 {
			t.Errorf("%s recorded no time", name)
		}
	}
	e.Reset()
	before := reg.Counter("core_fit_compute_ns_em").Value()
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("core_fit_compute_ns_em").Value() <= before {
		t.Error("timers detached by Reset")
	}
}

func TestNewFITTimersNilRegistry(t *testing.T) {
	if NewFITTimers(nil) != nil {
		t.Error("nil registry should produce nil timers (untimed fast path)")
	}
}
