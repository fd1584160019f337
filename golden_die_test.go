package ramp_test

// Golden equivalence for the manycore RAMP path, end to end at N=1: a
// one-core DieEngine reproduces a real evaluation's Assessment byte for
// byte. (The thermal side needs no such check: the single core's
// evaluation already runs on the one-core die's thermal model.)
import (
	"testing"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/trace"
)

func TestGoldenDieEquivalence(t *testing.T) {
	env := exp.NewEnv(exp.QuickOptions())
	qual := env.Qualification(400)
	app := trace.Bzip2()
	res, err := env.Evaluate(app, env.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) == 0 {
		t.Fatal("evaluation returned no epoch rows")
	}

	die := floorplan.MustNewDie(env.FP, 1)

	// RAMP: replaying the evaluation's epoch rows through a one-core
	// DieEngine reproduces the evaluation's own Assessment byte for byte
	// (same accumulation order, same budget — TargetFIT/1 is exact).
	de, err := core.NewDieEngine(die, env.Params, qual)
	if err != nil {
		t.Fatal(err)
	}
	on := power.OnFractions(env.Base, env.Base)
	for i := range res.Epochs {
		row := &res.Epochs[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       env.Base.VddV,
				FreqHz:     env.Base.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		o, err := de.RecordCore(0, iv)
		if err != nil {
			t.Fatal(err)
		}
		de.FoldCore(0, &o)
	}
	da, err := de.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if da.Cores[0] != res.Assessment {
		t.Fatalf("one-core die assessment differs from the evaluation's:\n die:  %+v\n eval: %+v",
			da.Cores[0], res.Assessment)
	}
	if da.ChipFIT != res.Assessment.TotalFIT || da.MinCoreMTTFYears != res.Assessment.MTTFYears {
		t.Fatalf("chip rollup differs from single-core totals: %+v", da)
	}
}
