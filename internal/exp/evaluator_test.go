package exp

import (
	"context"
	"math/rand"
	"testing"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/trace"
)

func quickEnv() *Env { return NewEnv(QuickOptions()) }

func TestEvaluateBaseRun(t *testing.T) {
	env := quickEnv()
	r, err := env.Evaluate(trace.Gzip(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.BIPS <= 0 {
		t.Fatalf("non-positive performance: %+v", r)
	}
	if r.AvgW <= 5 || r.AvgW > 80 {
		t.Fatalf("implausible power %v W", r.AvgW)
	}
	if r.MaxTempK <= env.Tech.AmbientK || r.MaxTempK > 450 {
		t.Fatalf("implausible max temperature %v K", r.MaxTempK)
	}
	if r.SinkK <= env.Tech.AmbientK {
		t.Fatalf("sink at/below ambient: %v", r.SinkK)
	}
	if r.AvgTempK <= r.SinkK {
		t.Fatalf("die average %v not above sink %v", r.AvgTempK, r.SinkK)
	}
	if r.FIT() <= 0 {
		t.Fatal("zero FIT")
	}
	if len(r.Epochs) != env.Opts.Epochs {
		t.Fatalf("epoch count %d", len(r.Epochs))
	}
	if r.Assessment.Intervals != env.Opts.Epochs {
		t.Fatalf("assessment intervals %d", r.Assessment.Intervals)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	env := quickEnv()
	q := env.Qualification(370)
	r1, err := env.Evaluate(trace.Twolf(), env.Base, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := env.Evaluate(trace.Twolf(), env.Base, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IPC != r2.IPC || r1.FIT() != r2.FIT() || r1.AvgW != r2.AvgW {
		t.Fatalf("evaluation not deterministic: %v/%v %v/%v", r1.IPC, r2.IPC, r1.FIT(), r2.FIT())
	}
}

func TestLowerTqualRaisesFIT(t *testing.T) {
	env := quickEnv()
	r, err := env.Evaluate(trace.Equake(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	a370, err := env.Requalify(r, env.Qualification(370))
	if err != nil {
		t.Fatal(err)
	}
	a345, err := env.Requalify(r, env.Qualification(345))
	if err != nil {
		t.Fatal(err)
	}
	if !(r.FIT() < a370.TotalFIT && a370.TotalFIT < a345.TotalFIT) {
		t.Fatalf("FIT not increasing as Tqual drops: %v %v %v",
			r.FIT(), a370.TotalFIT, a345.TotalFIT)
	}
}

// TestRequalifyMatchesEvaluate checks that requalifying a T_qual = 400 K
// result equals, bit for bit in every field, a cold evaluation at the
// new qualification point on a fresh Env (Section 3.7: simulation,
// power and temperature do not depend on T_qual). It covers ammp on the
// base machine at 345 K plus a few seeded (app, config, T_qual) points.
func TestRequalifyMatchesEvaluate(t *testing.T) {
	type point struct {
		app  trace.Profile
		proc config.Proc
		tq   float64
	}
	base := config.Base()
	points := []point{{trace.Ammp(), base, 345}}
	rng := rand.New(rand.NewSource(7))
	apps, archs := trace.Apps(), config.ArchConfigs()
	freqs := config.DVSFrequencies(0.5e9)
	for i := 0; i < 3; i++ {
		proc := archs[rng.Intn(len(archs))].WithOperatingPoint(freqs[rng.Intn(len(freqs))])
		points = append(points, point{apps[rng.Intn(len(apps))], proc, 325 + 0.5*float64(rng.Intn(151))})
	}
	env := quickEnv()
	for _, p := range points {
		r400, err := env.Evaluate(p.app, p.proc, env.Qualification(400))
		if err != nil {
			t.Fatal(err)
		}
		requal, err := env.Requalify(r400, env.Qualification(p.tq))
		if err != nil {
			t.Fatal(err)
		}
		cold := quickEnv()
		direct, err := cold.Evaluate(p.app, p.proc, cold.Qualification(p.tq))
		if err != nil {
			t.Fatal(err)
		}
		sameAssessment(t, p.app.Name+"/"+p.proc.Name, requal, direct.Assessment)
	}
}

func TestDVSReducesPowerAndTemperature(t *testing.T) {
	env := quickEnv()
	q := env.Qualification(400)
	fast, err := env.Evaluate(trace.Bzip2(), env.Base, q)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := env.Evaluate(trace.Bzip2(), env.Base.WithOperatingPoint(2.5e9), q)
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgW >= fast.AvgW {
		t.Fatalf("DVS down did not cut power: %v vs %v", slow.AvgW, fast.AvgW)
	}
	if slow.MaxTempK >= fast.MaxTempK {
		t.Fatalf("DVS down did not cool: %v vs %v", slow.MaxTempK, fast.MaxTempK)
	}
	if slow.FIT() >= fast.FIT() {
		t.Fatalf("DVS down did not improve reliability: %v vs %v", slow.FIT(), fast.FIT())
	}
	if slow.BIPS >= fast.BIPS {
		t.Fatalf("DVS down did not cost performance: %v vs %v", slow.BIPS, fast.BIPS)
	}
}

func TestGatedConfigDrawsLessPower(t *testing.T) {
	env := quickEnv()
	q := env.Qualification(400)
	full, err := env.Evaluate(trace.Twolf(), env.Base, q)
	if err != nil {
		t.Fatal(err)
	}
	small := env.Base
	small.WindowSize = 16
	small.IntALUs = 2
	small.FPUs = 1
	small.Name = "w16-a2-f1"
	gated, err := env.Evaluate(trace.Twolf(), small, q)
	if err != nil {
		t.Fatal(err)
	}
	if gated.AvgW >= full.AvgW {
		t.Fatalf("gated config not cheaper: %v vs %v W", gated.AvgW, full.AvgW)
	}
}

func TestEvaluateAllPreservesOrder(t *testing.T) {
	env := quickEnv()
	q := env.Qualification(400)
	jobs := []EvalJob{
		{App: trace.Twolf(), Proc: env.Base, Qual: q},
		{App: trace.Gzip(), Proc: env.Base, Qual: q},
		{App: trace.Art(), Proc: env.Base, Qual: q},
	}
	results, err := env.EvaluateAllCtx(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []string{"twolf", "gzip", "art"} {
		if results[i].App != want {
			t.Fatalf("result %d is %s, want %s", i, results[i].App, want)
		}
	}
}

func TestEvaluateRejectsBadInputs(t *testing.T) {
	env := quickEnv()
	if _, err := env.Evaluate(trace.Profile{}, env.Base, env.Qualification(400)); err == nil {
		t.Fatal("empty profile accepted")
	}
	bad := env.Base
	bad.WindowSize = 0
	if _, err := env.Evaluate(trace.Gzip(), bad, env.Qualification(400)); err == nil {
		t.Fatal("invalid processor accepted")
	}
	badQual := env.Qualification(400)
	badQual.TargetFIT = -1
	if _, err := env.Evaluate(trace.Gzip(), env.Base, badQual); err == nil {
		t.Fatal("invalid qualification accepted")
	}
}

func TestEpochTemperaturesPerStructure(t *testing.T) {
	env := quickEnv()
	r, err := env.Evaluate(trace.MP3dec(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Epochs {
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			if row.TempK[s] <= env.Tech.AmbientK {
				t.Fatalf("epoch temp for %v at/below ambient: %v", s, row.TempK[s])
			}
		}
		if row.TotalW <= 0 {
			t.Fatal("epoch without power")
		}
	}
}

func TestSuiteMaxActivityConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep; skipped in -short (race lane)")
	}
	// A_qual must upper-bound the per-structure activities the suite
	// actually reaches on the base machine (Section 3.7 sets it to the
	// observed maximum; the constant must not fall below reality).
	env := quickEnv()
	q := env.Qualification(400)
	maxAct := 0.0
	for _, app := range trace.Apps() {
		r, err := env.Evaluate(app, env.Base, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Epochs {
			for _, a := range row.Sim.Activity {
				if a > maxAct {
					maxAct = a
				}
			}
		}
	}
	if maxAct > SuiteMaxActivity+0.05 {
		t.Fatalf("observed suite max activity %v exceeds A_qual constant %v — recalibrate",
			maxAct, SuiteMaxActivity)
	}
	if maxAct < SuiteMaxActivity-0.15 {
		t.Fatalf("A_qual constant %v far above observed %v — recalibrate", SuiteMaxActivity, maxAct)
	}
}

func TestQualificationUsesBaseOperatingPoint(t *testing.T) {
	env := quickEnv()
	q := env.Qualification(370)
	if q.TqualK != 370 || q.VqualV != env.Base.VddV || q.FqualHz != env.Base.FreqHz {
		t.Fatalf("qualification point %+v", q)
	}
	if q.TargetFIT != core.StandardTargetFIT {
		t.Fatalf("target FIT %v", q.TargetFIT)
	}
}
