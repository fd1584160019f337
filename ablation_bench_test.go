// Ablation benchmarks for the methodology choices DESIGN.md calls out:
// the two-pass heat-sink initialisation, the leakage-temperature
// feedback, the DVS grid granularity, and reactive-control policies.
// Each reports the quantity the ablation changes via b.ReportMetric, so
// `go test -bench=Ablation -benchmem` doubles as a sensitivity study.
package ramp_test

import (
	"math"
	"testing"

	"ramp"
	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/drm"
	"ramp/internal/exp"
	"ramp/internal/power"
	"ramp/internal/trace"
)

// BenchmarkAblationSinkPasses compares the paper's two-pass heat-sink
// initialisation (Section 6.3) against a single pass: one pass leaves
// the sink at its initial guess and misestimates FIT.
func BenchmarkAblationSinkPasses(b *testing.B) {
	run := func(passes int) float64 {
		opts := exp.QuickOptions()
		opts.SinkPasses = passes
		env := exp.NewEnv(opts)
		r, err := env.Evaluate(trace.MP3dec(), env.Base, env.Qualification(400))
		if err != nil {
			b.Fatal(err)
		}
		return r.FIT()
	}
	var one, two float64
	for i := 0; i < b.N; i++ {
		one = run(1)
		two = run(2)
	}
	b.ReportMetric(one, "FIT-1pass")
	b.ReportMetric(two, "FIT-2pass")
}

// BenchmarkAblationLeakageFeedback quantifies the leakage-temperature
// loop: without iteration (leakage computed at the first guess), power
// and FIT are underestimated.
func BenchmarkAblationLeakageFeedback(b *testing.B) {
	run := func(iters int) (float64, float64) {
		opts := exp.QuickOptions()
		opts.LeakageIters = iters
		env := exp.NewEnv(opts)
		r, err := env.Evaluate(trace.MP3dec(), env.Base, env.Qualification(400))
		if err != nil {
			b.Fatal(err)
		}
		return r.AvgW, r.FIT()
	}
	var w1, f1, w4, f4 float64
	for i := 0; i < b.N; i++ {
		w1, f1 = run(1)
		w4, f4 = run(4)
	}
	b.ReportMetric(w1, "W-1iter")
	b.ReportMetric(w4, "W-4iter")
	b.ReportMetric(f1, "FIT-1iter")
	b.ReportMetric(f4, "FIT-4iter")
}

// BenchmarkAblationDVSGranularity compares the oracle's harvested
// performance on coarse vs fine DVS grids at T_qual = 400 K.
func BenchmarkAblationDVSGranularity(b *testing.B) {
	env := exp.NewEnv(exp.QuickOptions())
	qual := env.Qualification(400)
	run := func(step float64) float64 {
		o := drm.NewOracle(env)
		o.FreqStepHz = step
		sweep, err := o.Sweep(trace.Twolf(), drm.DVS)
		if err != nil {
			b.Fatal(err)
		}
		c, err := sweep.Select(env, qual)
		if err != nil {
			b.Fatal(err)
		}
		return c.RelPerf
	}
	var coarse, fine float64
	for i := 0; i < b.N; i++ {
		coarse = run(0.5e9)
		fine = run(0.125e9)
	}
	b.ReportMetric(coarse, "relperf-0.5GHz-grid")
	b.ReportMetric(fine, "relperf-0.125GHz-grid")
}

// BenchmarkAblationControlPolicy compares the reactive controller's two
// policies on a phased workload (Section 4's banking argument).
func BenchmarkAblationControlPolicy(b *testing.B) {
	env := exp.NewEnv(exp.QuickOptions())
	qual := env.Qualification(360)
	run := func(p ramp.ControlPolicy) (float64, float64) {
		ctrl := ramp.NewController(env, qual, p)
		tr, err := ctrl.Run(trace.MPGdec(), 20)
		if err != nil {
			b.Fatal(err)
		}
		return tr.BIPS, tr.FinalFIT
	}
	var bipsI, fitI, bipsB, fitB float64
	for i := 0; i < b.N; i++ {
		bipsI, fitI = run(ramp.Instantaneous)
		bipsB, fitB = run(ramp.Banked)
	}
	b.ReportMetric(bipsI, "BIPS-instantaneous")
	b.ReportMetric(bipsB, "BIPS-banked")
	b.ReportMetric(fitI, "FIT-instantaneous")
	b.ReportMetric(fitB, "FIT-banked")
}

// BenchmarkAblationGatingFITCredit isolates the Section 6.1 rule that
// powered-down area contributes no EM/TDDB failures: the same downsized
// configuration with and without the credit.
func BenchmarkAblationGatingFITCredit(b *testing.B) {
	env, small, budget := gatingCreditSetup(b)
	full := power.Ones()
	var with, without float64
	for i := 0; i < b.N; i++ {
		r, err := env.Evaluate(trace.Bzip2(), small, env.Qualification(gatingCreditTqualK))
		if err != nil {
			b.Fatal(err)
		}
		with = r.FIT()
		without = budget.Assess(exposureAt(b, env, r, full)).TotalFIT
	}
	if without <= with {
		b.Fatalf("FIT without the gating credit = %.1f, with it = %.1f: the credit should lower FIT", without, with)
	}
	b.ReportMetric(with, "FIT-with-gating-credit")
	b.ReportMetric(without, "FIT-without-credit")
}

// TestGatingFITCredit keeps the ablation above honest: re-recording the
// run with its own on-fractions reproduces Evaluate's FIT bit for bit,
// and re-recording it fully powered raises the FIT.
func TestGatingFITCredit(t *testing.T) {
	env, small, budget := gatingCreditSetup(t)
	r, err := env.Evaluate(trace.Bzip2(), small, env.Qualification(gatingCreditTqualK))
	if err != nil {
		t.Fatal(err)
	}
	if got := budget.Assess(exposureAt(t, env, r, power.OnFractions(small, env.Base))).TotalFIT; math.Float64bits(got) != math.Float64bits(r.FIT()) {
		t.Fatalf("re-recorded FIT with the run's on-fractions = %v, Evaluate's = %v", got, r.FIT())
	}
	if without := budget.Assess(exposureAt(t, env, r, power.Ones())).TotalFIT; without <= r.FIT() {
		t.Fatalf("FIT without the gating credit = %v, with it = %v: the credit should lower FIT", without, r.FIT())
	}
}

// gatingCreditTqualK is the gating-credit ablation's qualification
// temperature.
const gatingCreditTqualK = 370

// gatingCreditSetup returns the gating-credit ablation's environment, its
// downsized configuration and the budget at gatingCreditTqualK.
func gatingCreditSetup(tb testing.TB) (*exp.Env, config.Proc, core.Budget) {
	env := exp.NewEnv(exp.QuickOptions())
	small := env.Base
	small.WindowSize = 32
	small.IntALUs = 2
	small.FPUs = 1
	small.Name = "w32-a2-f1"
	budget, err := core.NewBudget(env.FP, env.Params, env.Qualification(gatingCreditTqualK))
	if err != nil {
		tb.Fatal(err)
	}
	return env, small, budget
}

// exposureAt records r's RAMP exposure again from its epoch rows, with
// the given per-structure on-fractions in place of those Evaluate used;
// temperatures, activity, Vdd and f are the run's.
func exposureAt(tb testing.TB, env *exp.Env, r exp.Result, on power.Vector) *core.Exposure {
	x, err := core.NewExposure(env.Params, len(r.Epochs), nil, func(i int) core.Interval {
		row := &r.Epochs[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := range iv.Structures {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       r.Proc.VddV,
				FreqHz:     r.Proc.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		return iv
	})
	if err != nil {
		tb.Fatal(err)
	}
	return x
}
