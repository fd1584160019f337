package core

import (
	"testing"

	"ramp/internal/floorplan"
)

// variedIntervals is an interval stream whose temperatures, operating
// points, activities and durations all change, so every FIT sum
// accumulates several distinct values.
func variedIntervals(n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i].DurationSec = 0.5 + 0.13*float64(i)
		for s := range ivs[i].Structures {
			ivs[i].Structures[s] = Conditions{
				TempK:      345 + 3.7*float64(i) + 1.9*float64(s),
				VddV:       1.0 + 0.01*float64(i%3),
				FreqHz:     4e9 - 1e8*float64(i%4),
				Activity:   0.1 + 0.05*float64((i+s)%10),
				OnFraction: 1 - 0.03*float64(s%5),
			}
		}
	}
	return ivs
}

func recordExposure(t testing.TB, ivs []Interval, timers *FITTimers) *Exposure {
	t.Helper()
	x, err := NewExposure(params(), len(ivs), timers, func(i int) Interval { return ivs[i] })
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestExposureAssessMatchesEngine checks that a budget applied to a
// recorded exposure equals streaming the same intervals through an
// Engine, bit for bit, at several qualification points.
func TestExposureAssessMatchesEngine(t *testing.T) {
	fp := floorplan.R10000Like()
	ivs := variedIntervals(7)
	plain := recordExposure(t, ivs, nil)
	for _, tq := range []float64{325, 347.5, 370, 400} {
		q := qual()
		q.TqualK = tq
		e := mustEngine(fp, params(), q)
		for _, iv := range ivs {
			if err := e.Observe(iv); err != nil {
				t.Fatal(err)
			}
		}
		want := mustAssess(e)
		b, err := NewBudget(fp, params(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Assess(plain); got != want {
			t.Errorf("T_qual %v: exposure assessment diverges from the engine:\nengine:   %+v\nexposure: %+v", tq, want, got)
		}
	}
}

func TestNewExposureValidation(t *testing.T) {
	none := func(int) Interval { return Interval{} }
	if _, err := NewExposure(params(), 0, nil, none); err == nil {
		t.Error("empty exposure accepted")
	}
	if _, err := NewExposure(params(), 1, nil, none); err == nil {
		t.Error("zero-duration interval accepted")
	}
	cold := func(int) Interval { return Interval{DurationSec: 1} }
	if _, err := NewExposure(params(), 1, nil, cold); err == nil {
		t.Error("zero-temperature interval accepted")
	}
}

// TestBudgetAssessAllocFree pins requalification as allocation-free:
// it runs once per candidate per T_qual in every DRM selection.
func TestBudgetAssessAllocFree(t *testing.T) {
	x := recordExposure(t, variedIntervals(6), nil)
	b, err := NewBudget(floorplan.R10000Like(), params(), qual())
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += b.Assess(x).TotalFIT }); allocs != 0 {
		t.Fatalf("Budget.Assess allocated %.0f objects/op, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("no FIT assessed")
	}
}
