package drm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

// tqualGrid is a seeded dense qualification grid: 150 points 0.5 K
// apart, ascending from a seeded offset in [325, 325.5) K.
func tqualGrid(seed int64) []float64 {
	off := 0.5 * rand.New(rand.NewSource(seed)).Float64()
	out := make([]float64, 150)
	for i := range out {
		out[i] = 325 + off + 0.5*float64(i)
	}
	return out
}

// TestTqualGridInvariants checks the paper's qualification claims on a
// dense T_qual grid for bzip2 and twolf in all three adaptation spaces
// on the 0.5 GHz DVS grid.
func TestTqualGridInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweeps; skipped in -short (race lane)")
	}
	o := quickOracle()
	grid := tqualGrid(11)
	spaces := []Adaptation{Arch, DVS, ArchDVS}
	for _, app := range []trace.Profile{trace.Bzip2(), trace.Twolf()} {
		choices := make(map[Adaptation][]Choice)
		for _, space := range spaces {
			sweep, err := o.Sweep(app, space)
			if err != nil {
				t.Fatal(err)
			}
			label := app.Name + "/" + space.String()

			// Section 3.7: a cheaper qualification (lower T_qual) leaves
			// the same run with strictly less budget headroom, so every
			// candidate's FIT strictly rises as T_qual falls.
			for _, r := range append([]exp.Result{sweep.Base}, sweep.Candidates...) {
				prev := -1.0
				for k := len(grid) - 1; k >= 0; k-- {
					a, err := o.Env.Requalify(r, o.Env.Qualification(grid[k]))
					if err != nil {
						t.Fatal(err)
					}
					if a.TotalFIT <= prev {
						t.Fatalf("%s %s: FIT %v at %v K not above %v at %v K", label, r.Proc.Name, a.TotalFIT, grid[k], prev, grid[k+1])
					}
					prev = a.TotalFIT
				}
			}

			// Sections 5 and 7: the oracle's performance and feasibility
			// never rise as T_qual falls.
			cs := make([]Choice, len(grid))
			for k, tq := range grid {
				if cs[k], err = sweep.Select(o.Env, o.Env.Qualification(tq)); err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					continue
				}
				if cs[k].RelPerf < cs[k-1].RelPerf {
					t.Fatalf("%s: RelPerf %v at %v K below %v at %v K", label, cs[k].RelPerf, tq, cs[k-1].RelPerf, grid[k-1])
				}
				if cs[k-1].Feasible && !cs[k].Feasible {
					t.Fatalf("%s: feasible at %v K but not at %v K", label, grid[k-1], tq)
				}
			}
			choices[space] = cs
		}

		// Section 7.3: ArchDVS's candidates are a superset of Arch's and
		// DVS's, so wherever either is feasible ArchDVS is too, and it
		// performs at least as well.
		both := choices[ArchDVS]
		for _, sub := range []Adaptation{Arch, DVS} {
			for k, c := range choices[sub] {
				if c.Feasible && !(both[k].Feasible && both[k].RelPerf >= c.RelPerf) {
					t.Fatalf("%s at %v K: ArchDVS (%v, feasible %v) below %v (%v)", app.Name, grid[k], both[k].RelPerf, both[k].Feasible, sub, c.RelPerf)
				}
			}
		}
	}
}

// dvsCurve is one app × architecture pair evaluated at every point of
// the 0.125 GHz DVS grid, in rising frequency.
type dvsCurve struct {
	label   string
	procs   []config.Proc
	results []exp.Result
}

// dvsSample evaluates, once per test binary, a seeded sample of six app
// × architecture pairs along the DVS grid at quick options: two art
// pairs, whose BIPS dips most often on the memory-latency quantum, and
// four drawn from the other apps (126 evaluations).
var dvsSample = sync.OnceValues(func() (*exp.Env, []dvsCurve) {
	env := exp.NewEnv(exp.QuickOptions())
	rng := rand.New(rand.NewSource(2))
	archs := config.ArchConfigs()
	others := trace.Apps()
	apps := []trace.Profile{trace.Art(), trace.Art()}
	for len(apps) < 6 {
		if a := others[rng.Intn(len(others))]; a.Name != "art" {
			apps = append(apps, a)
		}
	}
	qual := env.Qualification(400)
	var curves []dvsCurve
	var jobs []exp.EvalJob
	for _, app := range apps {
		arch := archs[rng.Intn(len(archs))]
		c := dvsCurve{label: app.Name + "/" + arch.Name}
		for _, f := range config.DVSFrequencies(config.DefaultFreqStepHz) {
			p := arch.WithOperatingPoint(f)
			c.procs = append(c.procs, p)
			jobs = append(jobs, exp.EvalJob{App: app, Proc: p, Qual: qual})
		}
		curves = append(curves, c)
	}
	results, err := env.EvaluateAllCtx(context.Background(), jobs)
	if err != nil {
		panic(err)
	}
	for i := range curves {
		n := len(curves[i].procs)
		curves[i].results, results = results[:n], results[n:]
	}
	return env, curves
})

// TestDVSFITNeverFalls: RAMP §3's EM, SM and TDDB rates rise with
// voltage, frequency and temperature, and TC's with temperature; a
// higher DVS point raises V and f, and with them power and temperature.
// So at each Figure 2 qualification temperature an app's FIT never
// falls as its DVS point rises.
func TestDVSFITNeverFalls(t *testing.T) {
	if testing.Short() {
		t.Skip("126 evaluations; skipped in -short (race lane)")
	}
	env, curves := dvsSample()
	for _, tq := range []float64{400, 370, 345, 325} {
		qual := env.Qualification(tq)
		for _, c := range curves {
			prev := 0.0
			for k, r := range c.results {
				a, err := env.Requalify(r, qual)
				if err != nil {
					t.Fatal(err)
				}
				if a.TotalFIT < prev {
					t.Errorf("%s at %v K: FIT %v at %s below %v one step down", c.label, tq, a.TotalFIT, c.procs[k].Name, prev)
				}
				prev = a.TotalFIT
			}
		}
	}
}

// memLatencySec is the memory latency the simulator charges at p's
// clock: MemLatencySec rounded up to whole cycles.
func memLatencySec(p config.Proc) float64 {
	return math.Ceil(p.MemLatencySec*p.FreqHz) / p.FreqHz
}

// TestDVSBIPSFallsOnlyOnMemoryQuantum: a faster clock shortens every
// core latency, so BIPS never falls across a DVS step unless the memory
// latency, a whole number of cycles, rises in nanoseconds there. It does
// at four of the grid's twenty steps (2.625→2.75, 3.25→3.375, 4.0→4.125
// and 4.625→4.75 GHz), and art's BIPS dips on them (EXPERIMENTS.md,
// Known deviations); at least one sampled step must dip on one, so the
// first check is not vacuous.
func TestDVSBIPSFallsOnlyOnMemoryQuantum(t *testing.T) {
	if testing.Short() {
		t.Skip("126 evaluations; skipped in -short (race lane)")
	}
	_, curves := dvsSample()
	var dips []string
	for _, c := range curves {
		for k := 1; k < len(c.results); k++ {
			lo, hi := c.procs[k-1], c.procs[k]
			if c.results[k].BIPS >= c.results[k-1].BIPS {
				continue
			}
			step := fmt.Sprintf("%s %s→%s: BIPS %v→%v", c.label, lo.Name, hi.Name, c.results[k-1].BIPS, c.results[k].BIPS)
			if memLatencySec(hi) <= memLatencySec(lo) {
				t.Errorf("%s, with the memory latency not rising (%v→%v s)", step, memLatencySec(lo), memLatencySec(hi))
				continue
			}
			dips = append(dips, step)
		}
	}
	if len(dips) == 0 {
		t.Fatal("no sampled step dipped on a memory-latency quantum step")
	}
	t.Logf("%d dips on quantum steps, e.g. %s", len(dips), dips[0])
}
