package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

// goldenFreqStepHz is the coarse DVS grid the golden snapshots use.
const goldenFreqStepHz = 0.5e9

// goldenDir holds the byte-exact snapshots, relative to the repository
// root (the benchmark's working directory).
const goldenDir = "results/golden"

// reproApps returns the Figure 2 and Figure 4 applications in a seeded
// order: bzip2, whose ArchDVS sweep Figure 3 already simulates, and
// twolf, the suite's coolest, lowest-IPC code — the contrast the paper's
// figures draw. The order changes the rows, not the work.
func reproApps(seed int64) []trace.Profile {
	apps := []trace.Profile{trace.Bzip2(), trace.Twolf()}
	if newRNG(seed, 0x4e90_f1a5).IntN(2) == 1 {
		apps[0], apps[1] = apps[1], apps[0]
	}
	return apps
}

// readGolden loads the named golden snapshots.
func readGolden(names ...string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(goldenDir, n))
		if err != nil {
			return nil, fmt.Errorf("golden snapshot: %w", err)
		}
		out[n] = b
	}
	return out, nil
}

// reproOutput is what one reproduction pass regenerates.
type reproOutput struct {
	tables  bytes.Buffer // Table 1, Table 2 and Figure 1, as tables_quick.txt
	figure3 bytes.Buffer // as figure3_quick.txt
	rest    bytes.Buffer // Figures 2 and 4
	f2      []figures.Figure2Row
	f3      []figures.Figure3Row
}

// reproPass regenerates Table 1, Table 2 and Figures 1-4 on env, timing
// each figure function in its own span.
func reproPass(env *exp.Env, apps []trace.Profile, rec *recorder) (*reproOutput, error) {
	out := &reproOutput{}
	figures.NewTable1(env).Write(&out.tables)
	out.tables.WriteByte('\n')

	var t2 []figures.Table2Row
	var f1 []figures.Figure1Row
	var f4 []figures.Figure4Row
	steps := []struct {
		span string
		call func() error
	}{
		{"figures.table2", func() (err error) { t2, err = figures.Table2(env); return err }},
		{"figures.figure1", func() (err error) { f1, err = figures.Figure1(env); return err }},
		{"figures.figure3", func() (err error) { out.f3, err = figures.Figure3(env, trace.Bzip2(), goldenFreqStepHz); return err }},
		{"figures.figure2", func() (err error) { out.f2, err = figures.Figure2(env, apps, goldenFreqStepHz); return err }},
		{"figures.figure4", func() (err error) { f4, err = figures.Figure4(env, apps, goldenFreqStepHz); return err }},
	}
	for _, s := range steps {
		if err := rec.time(s.span, s.call); err != nil {
			return nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	figures.WriteTable2(&out.tables, t2)
	out.tables.WriteByte('\n')
	figures.WriteFigure1(&out.tables, f1)
	figures.WriteFigure3(&out.figure3, trace.Bzip2().Name, out.f3)
	figures.WriteFigure2(&out.rest, out.f2)
	figures.WriteFigure4(&out.rest, f4)
	return out, nil
}

// checkRepro checks one pass's outputs: byte-exact against the goldens,
// and the paper's invariants.
func checkRepro(r *run, out *reproOutput, golden map[string][]byte) {
	r.check(bytes.Equal(out.tables.Bytes(), golden["tables_quick.txt"]), "tables differ from %s/tables_quick.txt", goldenDir)
	r.check(bytes.Equal(out.figure3.Bytes(), golden["figure3_quick.txt"]), "figure 3 differs from %s/figure3_quick.txt", goldenDir)
	checkFigure3(r, out.f3)
	for _, row := range out.f2 {
		checkMonotoneInTqual(r, "figure 2 "+row.App, row.RelPerf, row.Feasible, true)
	}
}

// checkFigure3 checks Section 5's superset argument: ArchDVS explores
// every Arch and every DVS configuration, so wherever either is feasible
// ArchDVS is feasible and performs at least as well.
func checkFigure3(r *run, rows []figures.Figure3Row) {
	by := make(map[string]figures.Figure3Row, len(rows))
	for _, row := range rows {
		by[row.Adaptation] = row
		checkMonotoneInTqual(r, "figure 3 "+row.Adaptation, row.RelPerf, row.Feasible, false)
	}
	both := by["ArchDVS"]
	for i := range figures.Figure3TqualsK {
		for _, sub := range []string{"Arch", "DVS"} {
			s := by[sub]
			if !s.Feasible[i] {
				continue
			}
			r.check(both.Feasible[i] && both.RelPerf[i] >= s.RelPerf[i],
				"figure 3 at %gK: ArchDVS %.4f (feasible %v) below %s %.4f", figures.Figure3TqualsK[i], both.RelPerf[i], both.Feasible[i], sub, s.RelPerf[i])
		}
	}
}

// checkMonotoneInTqual checks that a cheaper qualification (lower
// T_qual) never buys performance or feasibility: the FIT of every
// candidate rises as T_qual falls, so the feasible set only shrinks.
// falling says the series is ordered by falling T_qual.
func checkMonotoneInTqual(r *run, what string, rel []float64, feasible []bool, falling bool) {
	for i := 1; i < len(rel); i++ {
		hot, cold := i-1, i // hot has the higher T_qual
		if !falling {
			hot, cold = i, i-1
		}
		if feasible[cold] {
			r.check(feasible[hot] && rel[cold] <= rel[hot],
				"%s: RelPerf %.4f at the lower T_qual exceeds %.4f (feasible %v)", what, rel[cold], rel[hot], feasible[hot])
		}
	}
}

// reproCold regenerates the paper's tables and figures on a fresh Env
// per pass until the run's time is up.
//
// The simulated inputs are the golden ones on every seed: the trace seed
// alone moves a pass's cost by 40% (it changes how many cycles each
// simulated instruction takes), so the seed only orders the Figure 2 and
// 4 applications, and the golden byte-compares hold on every seed.
func reproCold(r *run) error {
	golden, err := readGolden("tables_quick.txt", "figure3_quick.txt")
	if err != nil {
		return err
	}
	opts := exp.QuickOptions()
	apps := reproApps(r.seed)

	// Set-up is building the Env, tens of microseconds, so its median is
	// taken over many builds.
	var setups []time.Duration
	for i := 0; i < 51; i++ {
		t := time.Now()
		exp.NewEnv(opts)
		setups = append(setups, time.Since(t))
	}

	var (
		walls, cpus, rates []float64 // untraced passes
		tracedWalls        []float64
		layers             []map[string]float64 // traced passes
		firstDigest        string
		cpuTotal           time.Duration
	)
	start := time.Now()
	for pass := 0; r.another(start, pass); pass++ {
		traced := r.traced && pass%2 == 1
		env := exp.NewEnv(opts)
		var tr *obs.Tracer
		var reg *obs.Registry
		if traced {
			tr, reg = obs.NewTracer(), obs.NewRegistry()
			env.Instrument(tr, reg)
		}
		u := now()
		rec := tracedRecorder(traced, u.wall)
		root := rec.begin("repro.pass")
		out, err := reproPass(env, apps, rec)
		rec.end(root)
		wall, cpu := u.since()
		r.op(err, fmt.Sprintf("reproduction pass %d", pass))
		if err != nil {
			continue
		}
		checkRepro(r, out, golden)
		d := newDigest()
		d.add("%s%s%s", out.tables.Bytes(), out.figure3.Bytes(), out.rest.Bytes())
		if firstDigest == "" {
			firstDigest = d.String()
			r.logf("digest repro %s (tables, figures 1-4)", firstDigest)
		}
		r.check(d.String() == firstDigest, "pass %d digest %s differs from %s", pass, d, firstDigest)

		cs := env.CacheStats()
		r.logf("pass %d traced=%v wall=%.3fs cpu=%.3fs evaluations=%d hits=%d", pass, traced, wall.Seconds(), cpu.Seconds(), cs.Misses, cs.Hits)
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			layers = append(layers, reproLayers(r, rec, tr, reg, cs, wall, cpu))
			continue
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		rates = append(rates, simRate(cs.Misses, opts, wall))
		cpuTotal += cpu
	}
	if r.traced {
		setLayerMedians(r, layers)
		r.set("trace.overhead_s", "s", median(tracedWalls)-median(walls))
		r.set("op.p99_ms", "ms", 1000*quantile(tracedWalls, 0.99))
		return nil
	}
	r.set("setup_s", "s", median(seconds(setups)))
	r.set("wall_s", "s", median(walls))
	r.set("cpu_s", "s", median(cpus))
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
	r.set("sim_minstr_per_s", "Minstr/s", median(rates))
	r.set("p50_ms", "ms", 1000*median(walls))
	r.set("cpu_ms_per_op", "ms", 1000*cpuTotal.Seconds()/float64(len(walls)))
	r.logf("passes=%d (one op = one full reproduction)", len(walls))
	return nil
}

// tracedRecorder returns a recorder for traced passes and nil otherwise.
func tracedRecorder(traced bool, t0 time.Time) *recorder {
	if !traced {
		return nil
	}
	return newRecorder(t0)
}

// reproLayers derives one traced pass's per-layer numbers: the
// benchmark-side ledger over the figure functions, the program's own
// evaluate-pipeline spans, and the counters of the instrumented Env.
func reproLayers(r *run, rec *recorder, tr *obs.Tracer, reg *obs.Registry, cs exp.CacheStats, wall, cpu time.Duration) map[string]float64 {
	l := newLedger(rec.spans)
	m := l.report(r, "repro-cold pass", wall)
	for _, f := range []string{"table2", "figure1", "figure2", "figure3", "figure4"} {
		m["figures."+f+"_s"] = l.parts["figures."+f].Seconds()
	}

	lane := laneLedger(tr.Events())
	lane.reportLane(r, cpu)
	m["lane.total_s"] = lane.total.Seconds()
	m["lane.sim_s"] = (lane.parts["sim.warmup"] + lane.parts["sim.epoch"]).Seconds()
	m["lane.fixedpoint_s"] = lane.parts["exp.fixedpoint"].Seconds()
	m["lane.sinkpass_s"] = lane.parts["thermal.sinkpass"].Seconds()
	m["lane.ramp_s"] = lane.parts["ramp.assess"].Seconds()
	m["lane.evaluate_self_s"] = lane.parts["exp.evaluate"].Seconds()

	m["exp.evaluations"] = float64(cs.Misses)
	m["exp.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	for k, v := range registryLayers(reg.Snapshot()) {
		m[k] = v
	}
	return m
}

// reportLane prints the evaluate-pipeline ledger and checks that its
// parts add up to the evaluations' summed duration.
func (l ledger) reportLane(r *run, cpu time.Duration) {
	r.logf("lane exp.evaluate: %.4fs summed over evaluations (%.1f%% of pass CPU %.4fs)", l.total.Seconds(), 100*l.total.Seconds()/cpu.Seconds(), cpu.Seconds())
	for _, n := range []string{"sim.warmup", "sim.epoch", "exp.fixedpoint", "thermal.sinkpass", "ramp.assess", "exp.evaluate"} {
		r.logf("  %-28s %10.4fs %6.1f%%", n, l.parts[n].Seconds(), 100*l.parts[n].Seconds()/l.total.Seconds())
	}
	gap := l.sum() - l.total
	r.check(gap.Abs() <= ledgerTolerance(l.total), "evaluate lane: parts %.6fs vs summed evaluations %.6fs", l.sum().Seconds(), l.total.Seconds())
}

// registryLayers reads the counters an instrumented Env keeps.
func registryLayers(s obs.Snapshot) map[string]float64 {
	m := map[string]float64{
		"sim.instructions": float64(s.Counters[exp.MetricSimRetired]),
		"sim.cycles":       float64(s.Counters[exp.MetricSimCycles]),
		"thermal.solves":   float64(s.Counters[exp.MetricThermalSolves]),
		"core.fit_ns.em":   float64(s.Counters["core_fit_compute_ns_em"]),
		"core.fit_ns.sm":   float64(s.Counters["core_fit_compute_ns_sm"]),
		"core.fit_ns.tddb": float64(s.Counters["core_fit_compute_ns_tddb"]),
		"core.fit_ns.tc":   float64(s.Counters["core_fit_compute_ns_tc"]),
	}
	if h := s.Histograms[exp.MetricEvaluateUS]; h.Count > 0 {
		m["exp.evaluate_ms_p50"] = h.Quantile(0.5) / 1000
	}
	if h := s.Histograms[exp.MetricFixedpointIter]; h.Count > 0 {
		m["exp.fixedpoint_iters_mean"] = float64(h.Sum) / float64(h.Count)
	}
	return m
}

// setLayerMedians reports each per-layer number as its median over the
// traced passes.
func setLayerMedians(r *run, passes []map[string]float64) {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	vals := make(map[string][]float64)
	for _, p := range passes {
		for k, v := range p {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		u, ok := units[k]
		if !ok {
			panic("perfbench: per-layer metric " + k + " missing from perLayer")
		}
		r.set(k, u, median(vs))
	}
}
