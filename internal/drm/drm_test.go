package drm

import (
	"context"
	"errors"
	"testing"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

func quickOracle() *Oracle {
	o := NewOracle(exp.NewEnv(exp.QuickOptions()))
	o.FreqStepHz = 0.5e9 // 6-point DVS grid keeps tests fast
	return o
}

func TestAdaptationString(t *testing.T) {
	if Arch.String() != "Arch" || DVS.String() != "DVS" || ArchDVS.String() != "ArchDVS" {
		t.Fatal("adaptation names broken")
	}
	if Adaptation(9).String() == "" {
		t.Fatal("unknown adaptation name empty")
	}
}

func TestCandidateSpaces(t *testing.T) {
	o := quickOracle()
	arch := o.Candidates(Arch)
	if len(arch) != 18 {
		t.Fatalf("Arch candidates = %d, want 18 (Section 6.1)", len(arch))
	}
	for _, c := range arch {
		if c.FreqHz != o.Env.Base.FreqHz || c.VddV != o.Env.Base.VddV {
			t.Fatalf("Arch candidate %s changed the operating point", c.Name)
		}
	}
	dvs := o.Candidates(DVS)
	if len(dvs) != 6 {
		t.Fatalf("DVS candidates = %d, want 6 at 0.5GHz step", len(dvs))
	}
	for _, c := range dvs {
		if c.WindowSize != o.Env.Base.WindowSize || c.IntALUs != o.Env.Base.IntALUs {
			t.Fatalf("DVS candidate %s changed the microarchitecture", c.Name)
		}
	}
	both := o.Candidates(ArchDVS)
	if len(both) != 18*6 {
		t.Fatalf("ArchDVS candidates = %d, want %d", len(both), 18*6)
	}
}

func TestDVSSweepSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	// Generous qualification: the oracle must exploit the slack and pick
	// a frequency above base.
	hi, err := sweep.Select(o.Env, o.Env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	if !hi.Feasible {
		t.Fatal("twolf at Tqual=400K should be feasible")
	}
	if hi.Proc.FreqHz < o.Env.Base.FreqHz {
		t.Fatalf("over-designed processor not exploited: %v GHz", hi.Proc.FreqHz/1e9)
	}
	if hi.RelPerf <= 0.99 {
		t.Fatalf("no performance harvested: %v", hi.RelPerf)
	}
	if hi.FIT > o.Env.Qualification(400).TargetFIT {
		t.Fatalf("selected config violates target: %v", hi.FIT)
	}

	// Harsh qualification: the oracle must throttle below base.
	lo, err := sweep.Select(o.Env, o.Env.Qualification(330))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Proc.FreqHz >= hi.Proc.FreqHz {
		t.Fatalf("harsher Tqual did not throttle: %v vs %v", lo.Proc.FreqHz, hi.Proc.FreqHz)
	}
}

func TestSelectMonotoneInTqual(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Gzip(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, tq := range []float64{325, 345, 370, 400} {
		c, err := sweep.Select(o.Env, o.Env.Qualification(tq))
		if err != nil {
			t.Fatal(err)
		}
		if c.RelPerf < prev-1e-9 {
			t.Fatalf("RelPerf not monotone in Tqual at %vK: %v < %v", tq, c.RelPerf, prev)
		}
		prev = c.RelPerf
	}
}

func TestArchCappedAtBasePerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	// The base machine is already the most aggressive configuration, so
	// Arch can never exceed 1.0 relative performance (Section 6.1).
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf(), Arch)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweep.Select(o.Env, o.Env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	if c.RelPerf > 1.005 {
		t.Fatalf("Arch exceeded base performance: %v", c.RelPerf)
	}
}

func TestDVSBeatsArchWhenThrottling(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	// Section 7.2: voltage scaling is the more effective DRM response.
	o := quickOracle()
	qual := o.Env.Qualification(345)
	archSweep, err := o.Sweep(trace.Bzip2(), Arch)
	if err != nil {
		t.Fatal(err)
	}
	dvsSweep, err := o.Sweep(trace.Bzip2(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	archChoice, err := archSweep.Select(o.Env, qual)
	if err != nil {
		t.Fatal(err)
	}
	dvsChoice, err := dvsSweep.Select(o.Env, qual)
	if err != nil {
		t.Fatal(err)
	}
	if !dvsChoice.Feasible {
		t.Fatal("DVS should find a feasible point at 345K")
	}
	if archChoice.Feasible && archChoice.RelPerf > dvsChoice.RelPerf+1e-9 {
		t.Fatalf("Arch (%v) beat DVS (%v) — contradicts Section 7.2",
			archChoice.RelPerf, dvsChoice.RelPerf)
	}
}

func TestInfeasibleFallsBackToMinFIT(t *testing.T) {
	o := quickOracle()
	sweep, err := o.Sweep(trace.MP3dec(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	// A qualification temperature so low no DVS point can meet it (the
	// FIT target is scale-invariant, so infeasibility comes from T_qual).
	qual := o.Env.Qualification(316)
	c, err := sweep.Select(o.Env, qual)
	if err != nil {
		t.Fatal(err)
	}
	if c.Feasible {
		t.Fatal("impossible target reported feasible")
	}
	// The fallback must be the lowest-FIT candidate: the minimum
	// operating point.
	if c.Proc.FreqHz != config.MinFreqHz {
		t.Fatalf("fallback is %v GHz, want the coolest point %v",
			c.Proc.FreqHz/1e9, config.MinFreqHz/1e9)
	}
}

// TestChoiceResultAssessedAtQual checks that a choice's Result carries
// the pick's assessment at the selected qualification point, not the
// sweep's: the two FITs differ roughly eightfold for twolf at 345 K.
func TestChoiceResultAssessedAtQual(t *testing.T) {
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	qual := o.Env.Qualification(345)
	c, err := sweep.Select(o.Env, qual)
	if err != nil {
		t.Fatal(err)
	}
	if c.Result.FIT() != c.FIT {
		t.Fatalf("Choice.Result.FIT() = %v, Choice.FIT = %v", c.Result.FIT(), c.FIT)
	}
	want, err := o.Env.Requalify(c.Result, qual)
	if err != nil {
		t.Fatal(err)
	}
	if c.Result.Assessment != want {
		t.Fatalf("Choice.Result.Assessment is not the pick's assessment at %v K", qual.TqualK)
	}
}

func TestSelectCtxCancelled(t *testing.T) {
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweep.SelectCtx(ctx, o.Env, o.Env.Qualification(345)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (want context.Canceled)", err)
	}
}

func TestSelectEmptySweepErrors(t *testing.T) {
	s := &Sweep{}
	if _, err := s.Select(exp.NewEnv(exp.QuickOptions()), exp.NewEnv(exp.QuickOptions()).Qualification(400)); err == nil {
		t.Fatal("empty sweep did not error")
	}
}

func TestFrequencyChoice(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Art(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	f, c, err := sweep.FrequencyChoice(o.Env, o.Env.Qualification(370))
	if err != nil {
		t.Fatal(err)
	}
	if f != c.Proc.FreqHz {
		t.Fatalf("frequency %v != choice %v", f, c.Proc.FreqHz)
	}
}

func TestSortedByPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf(), DVS)
	if err != nil {
		t.Fatal(err)
	}
	sorted := sweep.SortedByPerf()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].BIPS > sorted[i-1].BIPS {
			t.Fatal("not sorted by descending BIPS")
		}
	}
}
