package core

import (
	"math"
	"reflect"
	"testing"

	"ramp/internal/floorplan"
)

func dieInterval(tempK float64) Interval {
	iv := Interval{DurationSec: 3.0}
	for s := range iv.Structures {
		iv.Structures[s] = conds(tempK + 0.5*float64(s))
	}
	return iv
}

func newDieEngine(t *testing.T, n int) *DieEngine {
	t.Helper()
	d, err := NewDieEngine(floorplan.MustNewDie(floorplan.R10000Like(), n), params(), qual())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// observeCore records one interval of core k and folds it.
func observeCore(t *testing.T, d *DieEngine, k int, iv Interval) {
	t.Helper()
	o, err := d.RecordCore(k, iv)
	if err != nil {
		t.Fatal(err)
	}
	d.FoldCore(k, &o)
}

// TestDieEngineN1MatchesEngine pins the tentpole contract: a one-core
// DieEngine is the plain Engine bit for bit — same budget (TargetFIT/1
// is the identical float), same accumulators, same assessment.
func TestDieEngineN1MatchesEngine(t *testing.T) {
	e := MustNewEngine(floorplan.R10000Like(), params(), qual())
	d := newDieEngine(t, 1)

	be, bd := e.Budget(), d.cores[0].Budget()
	if be.Alloc != bd.Alloc || be.QualRate != bd.QualRate {
		t.Fatal("N=1 die budget differs from single-core budget")
	}

	for _, temp := range []float64{345, 360, 372.5} {
		iv := dieInterval(temp)
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
		observeCore(t, d, 0, iv)
	}
	want := e.MustAssess()
	got, err := d.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 1 || got.Cores[0] != want {
		t.Fatalf("N=1 die assessment differs:\n die  %+v\n core %+v", got.Cores[0], want)
	}
	if got.ChipFIT != want.TotalFIT || got.ChipMTTFYears != want.MTTFYears ||
		got.MinCoreMTTFYears != want.MTTFYears || got.MaxTempK != want.MaxTempK {
		t.Fatalf("N=1 chip rollup differs: %+v vs %+v", got, want)
	}
	if e.WearFITSeconds() != d.CoreWear(0) {
		t.Fatal("N=1 wear accumulator differs")
	}
}

// TestDieEngineBudgetSplit checks the per-core qualification split: each
// core's budget is the chip budget divided by n, so the SOFR total at
// qualification conditions still meets the chip TargetFIT.
func TestDieEngineBudgetSplit(t *testing.T) {
	n := 4
	d := newDieEngine(t, n)
	chip := MustNewEngine(floorplan.R10000Like(), params(), qual())

	var sum float64
	for k := 0; k < n; k++ {
		b := d.cores[k].Budget()
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			for _, m := range Mechanisms() {
				if want := chip.Budget().Alloc[s][m] / float64(n); math.Abs(b.Alloc[s][m]-want) > 1e-12 {
					t.Fatalf("core %d alloc[%v][%v] = %v, want %v", k, s, m, b.Alloc[s][m], want)
				}
				sum += b.Alloc[s][m]
			}
		}
	}
	if math.Abs(sum-qual().TargetFIT) > 1e-9 {
		t.Fatalf("per-core budgets sum to %v FIT, want %v", sum, qual().TargetFIT)
	}
}

// TestDieEngineSOFR checks the chip combination: ChipFIT is the sum of
// per-core totals (series failure system), the worst core sets
// MinCoreMTTFYears, and per-core wear accumulates independently.
func TestDieEngineSOFR(t *testing.T) {
	d := newDieEngine(t, 4)

	temps := []float64{350, 365, 380, 340} // core 2 runs hottest
	for e := 0; e < 5; e++ {
		for k := 0; k < 4; k++ {
			observeCore(t, d, k, dieInterval(temps[k]))
		}
	}
	a, err := d.Assess()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, ca := range a.Cores {
		sum += ca.TotalFIT
	}
	if math.Abs(a.ChipFIT-sum) > 1e-12*sum {
		t.Fatalf("ChipFIT %v != sum of core FITs %v", a.ChipFIT, sum)
	}
	if a.WorstCore != 2 {
		t.Fatalf("worst core %d, want the hottest (2)", a.WorstCore)
	}
	if a.MinCoreMTTFYears != a.Cores[2].MTTFYears {
		t.Fatal("MinCoreMTTFYears not the worst core's MTTF")
	}
	if !(d.CoreWear(2) > d.CoreWear(3)) {
		t.Fatal("hotter core accumulated less wear")
	}
	if a.ChipMTTFYears >= a.MinCoreMTTFYears {
		t.Fatal("chip SOFR MTTF must be below the best single core's")
	}

	// Assessing an unobserved die fails per-core.
	if _, err := newDieEngine(t, 2).Assess(); err == nil {
		t.Fatal("Assess on unobserved die should fail")
	}
}

// TestRecordFoldCoreAllocFree pins the per-core observe hot path:
// recording and folding an interval make no heap allocation.
func TestRecordFoldCoreAllocFree(t *testing.T) {
	d := newDieEngine(t, 4)
	iv := dieInterval(355)
	allocs := testing.AllocsPerRun(100, func() {
		o, err := d.RecordCore(1, iv)
		if err != nil {
			t.Fatal(err)
		}
		d.FoldCore(1, &o)
	})
	if allocs != 0 {
		t.Fatalf("RecordCore+FoldCore allocate %.1f times per interval, want 0", allocs)
	}
}

// TestFoldReplaysObserve pins the contract the scheduler's replay rests
// on: folding a stored observation again is observing its interval
// again, bit for bit, in assessment and wear.
func TestFoldReplaysObserve(t *testing.T) {
	fp := floorplan.R10000Like()
	live := MustNewEngine(fp, params(), qual())
	replay := MustNewEngine(fp, params(), qual())
	ivs := []Interval{dieInterval(350), dieInterval(371.25)}
	ivs[1].DurationSec = 0.7
	var stored [2]Observation
	for i, iv := range ivs {
		o, err := replay.Record(iv)
		if err != nil {
			t.Fatal(err)
		}
		stored[i] = o
	}
	for _, i := range []int{0, 1, 0, 0, 1} {
		if err := live.Observe(ivs[i]); err != nil {
			t.Fatal(err)
		}
		replay.Fold(&stored[i])
		if live.WearFITSeconds() != replay.WearFITSeconds() {
			t.Fatalf("wear after folding interval %d: %v, observed %v", i, replay.WearFITSeconds(), live.WearFITSeconds())
		}
	}
	if got, want := replay.MustAssess(), live.MustAssess(); got != want {
		t.Fatalf("replayed assessment differs:\n replay  %+v\n observe %+v", got, want)
	}
	if _, err := replay.Record(Interval{}); err == nil {
		t.Fatal("Record accepted a zero-duration interval")
	}
}

// TestDieEngineResetIsFresh checks that Reset returns a die engine to
// exactly the state NewDieEngine builds, so one engine serves every
// sink pass of a scheduling run.
func TestDieEngineResetIsFresh(t *testing.T) {
	d := newDieEngine(t, 3)
	for k := 0; k < 3; k++ {
		observeCore(t, d, k, dieInterval(350+5*float64(k)))
	}
	d.Reset()
	if fresh := newDieEngine(t, 3); !reflect.DeepEqual(d, fresh) {
		t.Fatal("reset die engine differs from a fresh one")
	}
}
