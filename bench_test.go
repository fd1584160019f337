// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Tables 1-2, Figures 1-4), plus micro-benchmarks of
// the substrates. Each experiment benchmark regenerates its table/figure
// rows (with reduced simulation lengths so the full suite stays
// tractable) and logs them; run with -v to see the series, or use the
// cmd/ binaries (ramptables, drmexplore, drmdtm) for full-length runs.
//
//	go test -bench=. -benchmem
package ramp_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ramp"
	"ramp/internal/drm"
	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/fleet"
	"ramp/internal/sched"
	"ramp/internal/serve"
	"ramp/internal/trace"
)

func quickEnv() *exp.Env { return exp.NewEnv(exp.QuickOptions()) }

// BenchmarkTable1 regenerates Table 1 (base processor parameters).
func BenchmarkTable1(b *testing.B) {
	env := quickEnv()
	var out string
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		figures.NewTable1(env).Write(&sb)
		out = sb.String()
	}
	b.Log("\n" + out)
}

// BenchmarkTable2 regenerates Table 2 (per-application IPC and power on
// the base processor).
func BenchmarkTable2(b *testing.B) {
	env := quickEnv()
	var rows []figures.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Table2(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteTable2(&sb, rows)
	b.Log("\n" + sb.String())
	for _, r := range rows {
		if r.App == "MP3dec" {
			b.ReportMetric(r.IPC, "MP3dec-IPC")
			b.ReportMetric(r.PowerW, "MP3dec-W")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (application FIT values across
// three qualification cost points).
func BenchmarkFigure1(b *testing.B) {
	env := quickEnv()
	var rows []figures.Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure1(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure1(&sb, rows)
	b.Log("\n" + sb.String())
}

// BenchmarkFigure2 regenerates Figure 2 (ArchDVS DRM performance vs
// T_qual) on a reduced setup: two contrasting applications and a coarse
// DVS grid. Use cmd/drmexplore for the full nine-application figure.
func BenchmarkFigure2(b *testing.B) {
	env := quickEnv()
	apps := []trace.Profile{trace.MP3dec(), trace.Twolf()}
	var rows []figures.Figure2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure2(env, apps, 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure2(&sb, rows)
	b.Log("\n" + sb.String())
	b.ReportMetric(rows[0].RelPerf[0], "hotApp-relperf@400K")
	b.ReportMetric(rows[0].RelPerf[len(rows[0].RelPerf)-1], "hotApp-relperf@325K")
}

// BenchmarkFigure3 regenerates Figure 3 (Arch vs DVS vs ArchDVS for
// bzip2) on a coarse DVS grid.
func BenchmarkFigure3(b *testing.B) {
	env := quickEnv()
	var rows []figures.Figure3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure3(env, trace.Bzip2(), 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure3(&sb, "bzip2", rows)
	b.Log("\n" + sb.String())
}

// BenchmarkFigure4 regenerates Figure 4 (DRM vs DTM DVS frequencies) for
// two contrasting applications on a coarse grid.
func BenchmarkFigure4(b *testing.B) {
	env := quickEnv()
	apps := []trace.Profile{trace.Gzip(), trace.Art()}
	var rows []figures.Figure4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure4(env, apps, 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure4(&sb, rows)
	b.Log("\n" + sb.String())
}

// BenchmarkDieEvaluate measures one manycore schedule evaluation on a
// four-core die at quick settings: per-epoch wear-leveling assignment,
// the tiled-die leakage-temperature fixed point (LU fast path on the
// 46-node system), and per-core RAMP observation. The suite evaluations
// are cached in the Env, so the number is the cost of the die run
// itself.
func BenchmarkDieEvaluate(b *testing.B) {
	env := quickEnv()
	sim, err := sched.New(env, sched.DefaultConfig(4, env.Opts))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r sched.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.Run(sched.WearLevel)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.LifetimeYears, "lifetime-years")
}

// BenchmarkSchedPolicies measures the analysis workload's scheduler
// shape: one eight-core die at quick settings over 400 epochs, run
// under each policy. Static and coolest placements repeat (demand row,
// assignment) pairs and replay most epochs from the pass's memo;
// eight-core wear-leveling hardly ever repeats one, so it solves
// almost every epoch.
func BenchmarkSchedPolicies(b *testing.B) {
	env := quickEnv()
	cfg := sched.DefaultConfig(8, env.Opts)
	cfg.Epochs = 400
	sim, err := sched.New(env, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range sched.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var r sched.Result
			for i := 0; i < b.N; i++ {
				if r, err = sim.Run(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.LifetimeYears, "lifetime-years")
		})
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimulator measures raw simulation speed (instructions/op).
func BenchmarkSimulator(b *testing.B) {
	gen, err := ramp.NewGenerator(trace.Bzip2(), 1)
	if err != nil {
		b.Fatal(err)
	}
	core, err := ramp.NewCore(ramp.BaseProcessor(), gen)
	if err != nil {
		b.Fatal(err)
	}
	core.Run(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(10_000)
	}
	b.ReportMetric(10_000, "instrs/op")
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	gen, err := ramp.NewGenerator(trace.MPGdec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var in ramp.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&in)
	}
}

// BenchmarkThermalQuasiSteady measures the pre-factorized quasi-steady
// solve on the single core (the one-core die) — the innermost call of
// every evaluation — and reports allocations, which must be zero (the
// matrix is factorized once at construction; each call is two
// triangular substitutions over the factors' nonzeros in the caller's
// buffer).
func BenchmarkThermalQuasiSteady(b *testing.B) {
	env := quickEnv()
	pw := powerVector(2.5)
	x := make([]float64, env.Thermal.Nodes()-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Thermal.QuasiSteadyInto(x, pw[:], 340)
	}
}

func powerVector(x float64) ramp.PowerVector {
	var v ramp.PowerVector
	for i := range v {
		v[i] = x
	}
	return v
}

// BenchmarkNewEnv measures building one quick-settings Env: the floorplan,
// the one-core thermal network and its factorization, and the empty
// result cache. It is the unit of perfbench repro-cold's setup_s, and
// its allocations show what every fresh Env pays before it simulates.
func BenchmarkNewEnv(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		envSink = quickEnv()
	}
}

// envSink keeps BenchmarkNewEnv's result live.
var envSink *exp.Env

// BenchmarkRAMPObserve measures folding one interval into the engine.
func BenchmarkRAMPObserve(b *testing.B) {
	env := quickEnv()
	engine, err := ramp.NewEngine(env.FP, env.Params, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	iv := ramp.Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = ramp.Conditions{
			TempK: 370, VddV: 1.0, FreqHz: 4e9, Activity: 0.4, OnFraction: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Observe(iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures one full cold pipeline evaluation
// (simulate, power, thermal, RAMP) at quick settings. A fresh Env per
// iteration defeats the result cache so the number stays the cost of
// actually simulating.
func BenchmarkEvaluate(b *testing.B) {
	app := trace.Twolf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := quickEnv()
		if _, err := env.Evaluate(app, env.Base, qualAt(env, 400)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCacheHit measures the memoized path: the same
// (app, proc) on a warm Env, requalified to a different T_qual each
// iteration so the RAMP re-assessment is included.
func BenchmarkEvaluateCacheHit(b *testing.B) {
	env := quickEnv()
	app := trace.Twolf()
	if _, err := env.Evaluate(app, env.Base, qualAt(env, 400)); err != nil {
		b.Fatal(err)
	}
	quals := []float64{400, 370, 345, 325}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Evaluate(app, env.Base, qualAt(env, quals[i%len(quals)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEvaluateHandler measures one warm POST /v1/evaluate
// through rampserve's handler chain (middleware, admission, cache hit,
// JSON encode) with an httptest recorder: the server's request path
// without the network.
func BenchmarkServeEvaluateHandler(b *testing.B) {
	h := serve.New(quickEnv(), serve.DefaultConfig()).Handler()
	evaluate := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(`{"app":"bzip2","tqual_k":345}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	evaluate() // the one simulation; every timed request is a cache hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate()
	}
}

// BenchmarkDRMSelect measures one oracle DRM selection (Sections 5 and
// 7) over bzip2's evaluated ArchDVS space on the 0.5 GHz DVS grid (108
// candidates), at a T_qual that rotates every iteration. The sweep is
// evaluated once before timing, so the number is the selection alone:
// one budget per T_qual applied to every candidate's RAMP exposure.
func BenchmarkDRMSelect(b *testing.B) {
	env := quickEnv()
	oracle := drm.NewOracle(env)
	oracle.FreqStepHz = 0.5e9
	sweep, err := oracle.Sweep(trace.Bzip2(), drm.ArchDVS)
	if err != nil {
		b.Fatal(err)
	}
	quals := []ramp.Qualification{qualAt(env, 400), qualAt(env, 370), qualAt(env, 345), qualAt(env, 325)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Select(env, quals[i%len(quals)]); err != nil {
			b.Fatal(err)
		}
	}
}

func qualAt(env *exp.Env, tqualK float64) ramp.Qualification {
	return env.Qualification(tqualK)
}

// BenchmarkScalingStudy regenerates the Section 1.2 technology-scaling
// trend (per-core and per-die FIT across 180-65 nm).
func BenchmarkScalingStudy(b *testing.B) {
	var rows []figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.ScalingStudy(exp.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteScaling(&sb, rows)
	b.Log("\n" + sb.String())
	b.ReportMetric(rows[0].FullDieFIT, "dieFIT-180nm")
	b.ReportMetric(rows[len(rows)-1].FullDieFIT, "dieFIT-65nm")
}

// BenchmarkLifetimeModel measures the Weibull series-system solver.
func BenchmarkLifetimeModel(b *testing.B) {
	env := quickEnv()
	r, err := env.Evaluate(trace.Twolf(), env.Base, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	lm, err := ramp.NewLifetimeModel(r.Assessment, ramp.DefaultWeibullShapes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var years float64
	for i := 0; i < b.N; i++ {
		years = lm.MTTFYears()
	}
	b.ReportMetric(years, "weibull-MTTF-years")
}

// BenchmarkFleetMC measures the fleet Monte Carlo engine: chips
// simulated to first failure per op, with process variation, two DRM
// policies and a repair scenario in play. Allocations per op are the
// run's fixed setup (shard accumulators + report); the per-chip loop
// itself is allocation-free (fleet's TestSimulateShardZeroAlloc).
func BenchmarkFleetMC(b *testing.B) {
	const chips = 50_000
	env := quickEnv()
	res, err := env.Evaluate(trace.Twolf(), env.Base, qualAt(env, 400))
	if err != nil {
		b.Fatal(err)
	}
	var policies []fleet.Policy
	for _, tq := range []float64{400, 370} {
		a, err := env.Requalify(res, qualAt(env, tq))
		if err != nil {
			b.Fatal(err)
		}
		policies = append(policies, fleet.Policy{Name: "tq", Assessment: a})
	}
	cfg := fleet.DefaultConfig(chips, 1)
	cfg.Scenarios = []fleet.Scenario{
		fleet.NominalScenario(),
		{Name: "repair", Duty: 1, Spares: 2},
	}
	eng, err := fleet.New(cfg, policies)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *fleet.Report
	for i := 0; i < b.N; i++ {
		rep, err = eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(chips, "chips/op")
	b.ReportMetric(float64(chips)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mchips/s")
	b.ReportMetric(rep.Results[0].MeanYears, "fleet-mean-years")
}

// BenchmarkSensorHarness measures RAMP observation through the emulated
// hardware sensor stack.
func BenchmarkSensorHarness(b *testing.B) {
	env := quickEnv()
	engine, err := ramp.NewEngine(env.FP, env.Params, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	temps, err := ramp.NewTempSensors(ramp.DefaultTempSensors(), 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := ramp.NewSensorHarness(temps, ramp.DefaultCounters(), engine)
	if err != nil {
		b.Fatal(err)
	}
	iv := ramp.Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = ramp.Conditions{
			TempK: 370, VddV: 1, FreqHz: 4e9, Activity: 0.4, OnFraction: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Observe(iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReactiveController measures one controlled epoch (simulate +
// sense + assess + act).
func BenchmarkReactiveController(b *testing.B) {
	env := quickEnv()
	ctrl := ramp.NewController(env, env.Qualification(370), ramp.Banked)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Run(trace.Gzip(), 4); err != nil {
			b.Fatal(err)
		}
	}
}
