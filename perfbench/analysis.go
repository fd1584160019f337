package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"ramp/internal/drm"
	"ramp/internal/dtm"
	"ramp/internal/exp"
	"ramp/internal/fleet"
	"ramp/internal/obs"
	"ramp/internal/sched"
	"ramp/internal/trace"
)

// analysisSweeps are the adaptation spaces the warm analysis selects
// over: bzip2 in all three (Figure 3's comparison) and twolf in Arch and
// DVS, each on the golden DVS grid.
var analysisSweeps = []struct {
	app    func() trace.Profile
	spaces []drm.Adaptation
}{
	{trace.Bzip2, []drm.Adaptation{drm.Arch, drm.DVS, drm.ArchDVS}},
	{trace.Twolf, []drm.Adaptation{drm.Arch, drm.DVS}},
}

// analysisTquals is the size of the dense T_qual (and T_max) grid each
// pass selects at, 0.5 K apart.
const analysisTquals = 150

// analysisCores are the die sizes the scheduler runs on, and
// analysisEpochs the scheduling epochs of each run (the default config
// runs 6, too few to weigh against the selection and fleet layers).
var analysisCores = []int{4, 8}

const analysisEpochs = 400

// fleetChips is the golden fleet run's population.
const fleetChips = 100_000

// analysisEnv is one set-up: a warm Env and the sweeps evaluated on it.
type analysisEnv struct {
	env  *exp.Env
	reg  *obs.Registry // nil unless instrumented
	drm  []*drm.Sweep
	dtm  []*dtm.Sweep
	opts exp.Options
}

// setupAnalysis evaluates every sweep and the nine-application suite
// cold, so the timed passes only read the evaluation cache.
func setupAnalysis(opts exp.Options, reg *obs.Registry) (*analysisEnv, error) {
	a := &analysisEnv{env: exp.NewEnv(opts), reg: reg, opts: opts}
	if reg != nil {
		a.env.Instrument(nil, reg)
	}
	oracle := drm.NewOracle(a.env)
	oracle.FreqStepHz = goldenFreqStepHz
	dtmOracle := dtm.NewOracle(a.env)
	dtmOracle.FreqStepHz = goldenFreqStepHz
	for _, s := range analysisSweeps {
		for _, space := range s.spaces {
			sw, err := oracle.Sweep(s.app(), space)
			if err != nil {
				return nil, fmt.Errorf("drm sweep %s/%v: %w", s.app().Name, space, err)
			}
			a.drm = append(a.drm, sw)
		}
		sw, err := dtmOracle.Sweep(s.app())
		if err != nil {
			return nil, fmt.Errorf("dtm sweep %s: %w", s.app().Name, err)
		}
		a.dtm = append(a.dtm, sw)
	}
	if _, err := a.env.EvaluateSuite(a.env.Qualification(400)); err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	return a, nil
}

// tqualGrid returns the seeded dense grid: analysisTquals points 0.5 K
// apart, ascending, starting at a seeded offset in [325, 325.5) K.
func tqualGrid(seed int64) []float64 {
	off := 0.5 * newRNG(seed, 0x7a5e_9a1d).Float64()
	out := make([]float64, analysisTquals)
	for i := range out {
		out[i] = 325 + off + 0.5*float64(i)
	}
	return out
}

// analysisOutput is what one analysis pass computes.
type analysisOutput struct {
	drmChoices [][]drm.Choice // [sweep][tqual]
	dtmChoices [][]dtm.Choice // [app][tmax]
	sched      []sched.Result
	fleet      *fleet.Report
	fleetTable bytes.Buffer
}

// analysisPass runs every post-simulation analysis once: DRM and DTM
// selection over the T_qual grid, the three scheduling policies on each
// die size, and the golden fleet run. lat receives each call's latency.
func analysisPass(a *analysisEnv, tquals []float64, fleetSeed uint64, rec *recorder, lat *[]float64) (*analysisOutput, error) {
	ctx := context.Background()
	env := a.env
	out := &analysisOutput{}
	call := func(name string, fn func() error) error {
		t := time.Now()
		err := rec.time(name, fn)
		*lat = append(*lat, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	for _, sw := range a.drm {
		choices := make([]drm.Choice, len(tquals))
		for i, tq := range tquals {
			if err := call("drm.select", func() (err error) {
				choices[i], err = sw.SelectCtx(ctx, env, env.Qualification(tq))
				return err
			}); err != nil {
				return nil, err
			}
		}
		out.drmChoices = append(out.drmChoices, choices)
	}
	for _, sw := range a.dtm {
		choices := make([]dtm.Choice, len(tquals))
		for i, tmax := range tquals {
			if err := call("dtm.select", func() (err error) {
				choices[i], err = sw.Select(tmax)
				return err
			}); err != nil {
				return nil, err
			}
		}
		out.dtmChoices = append(out.dtmChoices, choices)
	}

	for _, n := range analysisCores {
		var sim *sched.Simulator
		if err := call("sched.new", func() (err error) {
			cfg := sched.DefaultConfig(n, a.opts)
			cfg.Epochs = analysisEpochs
			sim, err = sched.New(env, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		for _, p := range sched.Policies() {
			if err := call("sched.run."+p.String(), func() error {
				res, err := sim.Run(p)
				out.sched = append(out.sched, res)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}

	// The golden fleet run: MP3dec on the base machine under two
	// qualification policies and three failure-response scenarios.
	var policies []fleet.Policy
	if err := call("fleet.policies", func() error {
		res, err := env.Evaluate(trace.MP3dec(), env.Base, env.Qualification(400))
		if err != nil {
			return err
		}
		for _, tq := range []float64{400, 370} {
			as, err := env.Requalify(res, env.Qualification(tq))
			if err != nil {
				return err
			}
			policies = append(policies, fleet.Policy{Name: fmt.Sprintf("tq%gK", tq), Assessment: as})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	cfg := fleet.DefaultConfig(fleetChips, fleetSeed)
	cfg.Scenarios = []fleet.Scenario{
		fleet.NominalScenario(),
		{Name: "checkpoint", Duty: 0.8},
		{Name: "repair", Duty: 1, Spares: 2},
	}
	var eng *fleet.Engine
	if err := call("fleet.compile", func() (err error) {
		eng, err = fleet.New(cfg, policies)
		return err
	}); err != nil {
		return nil, err
	}
	if err := call("fleet.run", func() (err error) {
		out.fleet, err = eng.Run(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	out.fleet.WriteTable(&out.fleetTable)
	return out, nil
}

// checkAnalysis checks one pass: the fleet table byte-exact on the golden
// seed, and on every seed the paper's invariants plus the scheduler's
// iso-performance construction.
func checkAnalysis(r *run, out *analysisOutput, golden []byte) {
	if golden != nil {
		r.check(bytes.Equal(out.fleetTable.Bytes(), golden), "fleet table differs from %s/fleet_quick.txt", goldenDir)
	}
	byApp := make(map[string]map[drm.Adaptation][]drm.Choice)
	i := 0
	for _, s := range analysisSweeps {
		byApp[s.app().Name] = make(map[drm.Adaptation][]drm.Choice)
		for _, space := range s.spaces {
			cs := out.drmChoices[i]
			i++
			byApp[s.app().Name][space] = cs
			rel := make([]float64, len(cs))
			feasible := make([]bool, len(cs))
			for k, c := range cs {
				rel[k], feasible[k] = c.RelPerf, c.Feasible
			}
			checkMonotoneInTqual(r, fmt.Sprintf("drm %s/%v", s.app().Name, space), rel, feasible, false)
		}
	}
	for _, s := range analysisSweeps {
		app, spaces := s.app().Name, byApp[s.app().Name]
		both, ok := spaces[drm.ArchDVS]
		if !ok {
			continue
		}
		for _, sub := range []drm.Adaptation{drm.Arch, drm.DVS} {
			for k, c := range spaces[sub] {
				if c.Feasible {
					r.check(both[k].Feasible && both[k].RelPerf >= c.RelPerf,
						"drm %s choice %d: ArchDVS %.4f below %v %.4f", app, k, both[k].RelPerf, sub, c.RelPerf)
				}
			}
		}
	}
	for k := 0; k+len(sched.Policies()) <= len(out.sched); k += len(sched.Policies()) {
		base := out.sched[k]
		for _, res := range out.sched[k+1 : k+len(sched.Policies())] {
			r.check(math.Float64bits(res.BIPS) == math.Float64bits(base.BIPS) && math.Float64bits(res.TimeSec) == math.Float64bits(base.TimeSec),
				"sched %d cores: %v BIPS %g differs from %v %g (iso-performance)", res.NCores, res.Policy, res.BIPS, base.Policy, base.BIPS)
		}
	}
	checkFleet(r, out.fleet)
}

// checkFleet checks that survival never rises with time, that the
// 11-year return rate covers the 7-year one, and that the cheaper
// qualification (the later policy, lower T_qual) never returns fewer
// chips under the same scenario.
func checkFleet(r *run, rep *fleet.Report) {
	nscen := len(rep.Results) / len(rep.Policies)
	for i, sr := range rep.Results {
		for k := 1; k < len(sr.Survival); k++ {
			if sr.Survival[k] > sr.Survival[k-1] {
				r.check(false, "fleet %s/%s: survival rises at %.1f years", sr.Policy, sr.Scenario, sr.SurvivalYears[k])
				break
			}
		}
		r.check(sr.Return7 <= sr.Return11, "fleet %s/%s: 7-year returns %g exceed 11-year %g", sr.Policy, sr.Scenario, sr.Return7, sr.Return11)
		if i >= nscen {
			hot := rep.Results[i-nscen]
			r.check(sr.Return7 >= hot.Return7 && sr.Return11 >= hot.Return11,
				"fleet %s/%s returns %g/%g below %s's %g/%g", sr.Policy, sr.Scenario, sr.Return7, sr.Return11, hot.Policy, hot.Return7, hot.Return11)
		}
	}
}

// digestAnalysis hashes the outputs the goldens do not pin.
func digestAnalysis(out *analysisOutput) string {
	d := newDigest()
	for _, cs := range out.drmChoices {
		for _, c := range cs {
			d.add("drm %s %.9g %.9g %v;", c.Proc.Name, c.RelPerf, c.FIT, c.Feasible)
		}
	}
	for _, cs := range out.dtmChoices {
		for _, c := range cs {
			d.add("dtm %s %.9g %v;", c.Proc.Name, c.MaxTempK, c.Feasible)
		}
	}
	for _, s := range out.sched {
		d.add("sched %d %v %.9g %.9g %d;", s.NCores, s.Policy, s.LifetimeYears, s.ChipFIT, s.Migrations)
	}
	d.add("%s", out.fleetTable.Bytes())
	return d.String()
}

// analysisWarm sets the cache up cold, then repeats the post-simulation
// analysis until the run's time is up.
func analysisWarm(r *run) error {
	var golden []byte
	if r.seed == goldenSeed {
		g, err := readGolden("fleet_quick.txt")
		if err != nil {
			return err
		}
		golden = g["fleet_quick.txt"]
	}
	// As in repro-cold, the simulated inputs are the golden ones on every
	// seed, so set-up always simulates the same work; the seed moves the
	// T_qual grid and the fleet's random streams.
	opts := exp.QuickOptions()

	// Traced runs set up twice — a plain Env for the untraced passes and
	// an instrumented one for the traced passes; untraced runs set up
	// setupRepeats times and keep the last.
	var setups, rates []float64
	var plain, instrumented *analysisEnv
	repeats := setupRepeats
	if r.traced {
		repeats = 2
	}
	for i := 0; i < repeats; i++ {
		var reg *obs.Registry
		if r.traced && i == repeats-1 {
			reg = obs.NewRegistry()
		}
		t := time.Now()
		a, err := setupAnalysis(opts, reg)
		if err != nil {
			return err
		}
		wall := time.Since(t)
		misses := a.env.CacheStats().Misses
		setups = append(setups, wall.Seconds())
		rates = append(rates, simRate(misses, opts, wall))
		r.logf("setup %d: %.3fs, %d evaluations", i, wall.Seconds(), misses)
		if reg != nil {
			instrumented = a
		} else {
			plain = a
		}
	}

	tquals := tqualGrid(r.seed)
	fleetSeed := uint64(r.seed)
	var (
		walls, cpus, tracedWalls []float64
		lat, tracedLat           []float64 // query latencies, seconds
		layers                   []map[string]float64
		firstDigest              string
		cpuTotal                 time.Duration
	)
	start := time.Now()
	for pass := 0; r.another(start, pass); pass++ {
		traced := r.traced && pass%2 == 1
		a := plain
		if traced {
			a = instrumented
		}
		var before obs.Snapshot
		if traced {
			before = a.reg.Snapshot()
		}
		cacheBefore := a.env.CacheStats()
		var passLat []float64
		u := now()
		rec := tracedRecorder(traced, u.wall)
		root := rec.begin("analysis.pass")
		out, err := analysisPass(a, tquals, fleetSeed, rec, &passLat)
		rec.end(root)
		wall, cpu := u.since()
		if err != nil {
			r.op(err, fmt.Sprintf("analysis pass %d", pass))
			continue
		}
		r.attempted += int64(len(passLat))
		checkAnalysis(r, out, golden)
		if d := digestAnalysis(out); firstDigest == "" {
			firstDigest = d
			r.logf("digest analysis %s (drm/dtm choices, sched results, fleet table)", d)
		} else {
			r.check(d == firstDigest, "pass %d digest %s differs from %s", pass, d, firstDigest)
		}
		cs := a.env.CacheStats()
		hits, misses := cs.Hits-cacheBefore.Hits, cs.Misses-cacheBefore.Misses
		r.check(misses == 0, "pass %d simulated %d evaluations on a warm cache", pass, misses)
		r.logf("pass %d traced=%v wall=%.3fs cpu=%.3fs queries=%d hits=%d misses=%d", pass, traced, wall.Seconds(), cpu.Seconds(), len(passLat), hits, misses)
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			m := analysisLayers(r, rec, before, a.reg.Snapshot(), wall)
			m["exp.evaluations"] = float64(misses)
			m["exp.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
			layers = append(layers, m)
			tracedLat = append(tracedLat, passLat...)
			continue
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		lat = append(lat, passLat...)
		cpuTotal += cpu
	}
	if r.traced {
		setLayerMedians(r, layers)
		if h := instrumented.reg.Snapshot().Histograms[exp.MetricEvaluateUS]; h.Count > 0 {
			r.set("exp.evaluate_ms_p50", "ms", h.Quantile(0.5)/1000)
		}
		r.set("trace.overhead_s", "s", median(tracedWalls)-median(walls))
		r.set("op.p99_ms", "ms", 1000*quantile(tracedLat, 0.99))
		return nil
	}
	r.set("setup_s", "s", median(setups))
	r.set("wall_s", "s", median(walls))
	r.set("cpu_s", "s", median(cpus))
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
	r.set("sim_minstr_per_s", "Minstr/s", median(rates))
	r.set("p50_ms", "ms", 1000*median(lat))
	r.set("cpu_ms_per_op", "ms", 1000*cpuTotal.Seconds()/float64(len(lat)))
	r.logf("passes=%d queries=%d (one op = one analysis call)", len(walls), len(lat))
	return nil
}

// analysisLayers derives one traced pass's per-layer numbers from the
// benchmark-side ledger and the instrumented Env's counter deltas.
func analysisLayers(r *run, rec *recorder, before, after obs.Snapshot, wall time.Duration) map[string]float64 {
	l := newLedger(rec.spans)
	m := l.report(r, "analysis-warm pass", wall)
	m["drm.select_s"] = l.parts["drm.select"].Seconds()
	m["dtm.select_s"] = l.parts["dtm.select"].Seconds()
	m["sched.new_s"] = l.parts["sched.new"].Seconds()
	for _, p := range sched.Policies() {
		m["sched.run_ms."+p.String()] = 1000 * l.parts["sched.run."+p.String()].Seconds()
	}
	m["fleet.policies_s"] = l.parts["fleet.policies"].Seconds()
	m["fleet.compile_ms"] = 1000 * l.parts["fleet.compile"].Seconds()
	m["fleet.run_s"] = l.parts["fleet.run"].Seconds()
	m["fleet.mchips_per_s"] = fleetChips / l.parts["fleet.run"].Seconds() / 1e6
	var selects []float64
	for _, s := range rec.spans {
		if s.name == "drm.select" {
			selects = append(selects, (s.end - s.start).Seconds())
		}
	}
	m["drm.select_ms_p50"] = 1000 * median(selects)
	for k, v := range registryLayers(delta(before, after)) {
		m[k] = v
	}
	return m
}

// delta returns the counter and histogram differences after - before.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: make(map[string]int64), Histograms: make(map[string]obs.HistogramSnapshot)}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		d.Histograms[k] = histDelta(before.Histograms[k], h)
	}
	return d
}

// histDelta subtracts two snapshots of one cumulative log2 histogram.
// A snapshot omits the empty buckets below its first observation and
// the full ones above the bucket that reaches its count, so a bound
// missing from before reads 0 below its smallest bound and its count
// above it.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	lowest := int64(-1)
	for le := range before.Buckets {
		if b, err := strconv.ParseInt(le, 10, 64); err == nil && (lowest < 0 || b < lowest) {
			lowest = b
		}
	}
	d := obs.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Buckets: make(map[string]int64)}
	for le, c := range after.Buckets {
		prev, ok := before.Buckets[le]
		if !ok {
			b, err := strconv.ParseInt(le, 10, 64)
			if err != nil || (lowest >= 0 && b > lowest) {
				prev = before.Count
			}
		}
		d.Buckets[le] = c - prev
	}
	return d
}
