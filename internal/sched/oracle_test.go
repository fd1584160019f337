package sched

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
)

// sharedEnv is one quick Env for the tests that only read it, so the
// suite is simulated once per process.
var sharedEnv = sync.OnceValue(func() *exp.Env { return exp.NewEnv(exp.QuickOptions()) })

func newSim(t *testing.T, env *exp.Env, n, epochs int, tqualK float64) *Simulator {
	t.Helper()
	s, err := New(env, Config{NCores: n, Epochs: epochs, TqualK: tqualK})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceRun is the scheduler's epoch loop as first written, kept as
// the oracle for Run: a demand table with one row per die epoch, a
// fresh DieEngine per pass, and in every epoch a freshly sorted
// assignment, a leakage-temperature fixed point and a RAMP observation
// of every core (Record then Fold, which is Observe). Run must return
// the same bits.
func referenceRun(t *testing.T, s *Simulator, p Policy) Result {
	t.Helper()
	suite, err := s.env.EvaluateSuite(s.qual)
	if err != nil {
		t.Fatal(err)
	}
	n, g := s.cfg.NCores, len(s.groups)

	epochs := make([]float64, s.cfg.Epochs)
	demand := make([][]groupEpoch, s.cfg.Epochs)
	var retired float64
	for e := 0; e < s.cfg.Epochs; e++ {
		demand[e] = make([]groupEpoch, g)
		var makespan float64
		busy := make([]float64, g)
		for k, apps := range s.groups {
			for _, a := range apps {
				rows := suite[a].Epochs
				busy[k] += rows[e%len(rows)].Sim.TimeSec
			}
			if busy[k] > makespan {
				makespan = busy[k]
			}
		}
		epochs[e] = makespan
		for k, apps := range s.groups {
			d := &demand[e][k]
			for _, a := range apps {
				rows := suite[a].Epochs
				row := &rows[e%len(rows)]
				w := row.Sim.TimeSec / makespan
				for st := range d.act {
					d.act[st] += row.Sim.Activity[st] * w
				}
				d.heatW += row.TotalW * w
				d.retired += float64(row.Sim.Retired)
			}
			retired += d.retired
		}
	}

	var (
		engine    *core.DieEngine
		res       Result
		sinkK     = s.env.Tech.AmbientK + 30
		assigned  = make([]int, g)
		coreOf    = make([]int, n)
		acts      = make([]*power.Vector, n)
		temps     = make([]float64, s.model.Nodes()-1)
		prevTemps = make([]float64, s.die.NumBlocks())
		pw        = make([]float64, s.die.NumBlocks())
		prevMax   = make([]float64, n)
		ones      = power.Ones()
		zero      power.Vector
	)
	for pass := 0; pass < max(1, s.env.Opts.SinkPasses); pass++ {
		engine, err = core.NewDieEngine(s.die, s.env.Params, s.qual)
		if err != nil {
			t.Fatal(err)
		}
		res = Result{Policy: p, NCores: n, CoreWear: make([]float64, n)}
		for k := range assigned {
			assigned[k] = -1
		}
		clear(prevMax)
		var wSum float64
		for e := 0; e < s.cfg.Epochs; e++ {
			for c := range coreOf {
				coreOf[c] = -1
			}
			next := make([]int, g)
			switch p {
			case Static:
				for k := range next {
					next[k] = k
				}
			case Coolest, WearLevel:
				order := make([]int, g)
				for k := range order {
					order[k] = k
				}
				dem := demand[e]
				sort.SliceStable(order, func(a, b int) bool {
					return dem[order[a]].heatW > dem[order[b]].heatW
				})
				cores := make([]int, n)
				for c := range cores {
					cores[c] = c
				}
				if p == Coolest {
					sort.SliceStable(cores, func(a, b int) bool {
						return prevMax[cores[a]] < prevMax[cores[b]]
					})
				} else {
					sort.SliceStable(cores, func(a, b int) bool {
						return engine.CoreWear(cores[a]) < engine.CoreWear(cores[b])
					})
				}
				for i, grp := range order {
					next[grp] = cores[i]
				}
			}
			for k := range next {
				if assigned[k] >= 0 && assigned[k] != next[k] {
					res.Migrations++
				}
				assigned[k] = next[k]
				coreOf[next[k]] = k
			}

			for c, grp := range coreOf {
				acts[c] = &zero
				if grp >= 0 {
					acts[c] = &demand[e][grp].act
				}
			}
			s.env.DieFixedPoint(s.model, acts, &ones, s.env.Base.VddV, s.env.Base.FreqHz, sinkK, temps, prevTemps, pw)
			var totalW float64
			for _, w := range pw {
				totalW += w
			}
			for c := range prevMax {
				prevMax[c] = s.model.MaxCoreTemp(temps, c)
			}

			ns := int(floorplan.NumStructures)
			iv := core.Interval{DurationSec: epochs[e]}
			for c, act := range acts {
				for i := 0; i < ns; i++ {
					iv.Structures[i] = core.Conditions{
						TempK:      temps[c*ns+i],
						VddV:       s.env.Base.VddV,
						FreqHz:     s.env.Base.FreqHz,
						Activity:   act[i],
						OnFraction: 1,
					}
				}
				o, err := engine.RecordCore(c, iv)
				if err != nil {
					t.Fatal(err)
				}
				engine.FoldCore(c, &o)
			}

			wSum += totalW * epochs[e]
			res.TimeSec += epochs[e]
			for _, mt := range prevMax {
				res.MaxTempK = max(res.MaxTempK, mt)
			}
		}
		res.AvgW = wSum / res.TimeSec
		sinkK = s.model.SinkSteadyTemp(res.AvgW)
	}
	a, err := engine.Assess()
	if err != nil {
		t.Fatal(err)
	}
	res.Assessment = a
	res.LifetimeYears = a.MinCoreMTTFYears
	res.ChipFIT = a.ChipFIT
	res.ChipMTTFYears = a.ChipMTTFYears
	res.BIPS = retired / res.TimeSec / 1e9
	for k := range res.CoreWear {
		res.CoreWear[k] = engine.CoreWear(k)
	}
	return res
}

// resultBits lists every number of a Result by name, floats as their
// IEEE bits, so two results compare bit for bit.
func resultBits(r Result) map[string]uint64 {
	out := map[string]uint64{}
	f := func(name string, v float64) { out[name] = math.Float64bits(v) }
	i := func(name string, v int) { out[name] = uint64(v) }
	i("Policy", int(r.Policy))
	i("NCores", r.NCores)
	i("Migrations", r.Migrations)
	f("LifetimeYears", r.LifetimeYears)
	f("ChipFIT", r.ChipFIT)
	f("ChipMTTFYears", r.ChipMTTFYears)
	f("AvgW", r.AvgW)
	f("MaxTempK", r.MaxTempK)
	f("BIPS", r.BIPS)
	f("TimeSec", r.TimeSec)
	i("len(CoreWear)", len(r.CoreWear))
	for k, w := range r.CoreWear {
		f(fmt.Sprintf("CoreWear[%d]", k), w)
	}
	a := r.Assessment
	f("Assessment.ChipFIT", a.ChipFIT)
	f("Assessment.ChipMTTFHours", a.ChipMTTFHours)
	f("Assessment.ChipMTTFYears", a.ChipMTTFYears)
	f("Assessment.MinCoreMTTFYears", a.MinCoreMTTFYears)
	i("Assessment.WorstCore", a.WorstCore)
	f("Assessment.MaxTempK", a.MaxTempK)
	i("len(Assessment.Cores)", len(a.Cores))
	for k, c := range a.Cores {
		p := fmt.Sprintf("Cores[%d].", k)
		for s := range c.FIT {
			for m := range c.FIT[s] {
				f(fmt.Sprintf("%sFIT[%d][%d]", p, s, m), c.FIT[s][m])
			}
			f(fmt.Sprintf("%sAvgTempK[%d]", p, s), c.AvgTempK[s])
		}
		f(p+"TotalFIT", c.TotalFIT)
		f(p+"MTTFHours", c.MTTFHours)
		f(p+"MTTFYears", c.MTTFYears)
		f(p+"MaxTempK", c.MaxTempK)
		i(p+"Intervals", c.Intervals)
		f(p+"TimeSec", c.TimeSec)
	}
	return out
}

// sameBits reports the first field (in name order) where got and want
// differ, or "" if every bit matches.
func sameBits(got, want Result) string {
	g, w := resultBits(got), resultBits(want)
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if gb, ok := g[name]; !ok || gb != w[name] {
			return fmt.Sprintf("%s: got %#x, want %#x", name, gb, w[name])
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d fields, want %d", len(g), len(w))
	}
	return ""
}

// TestRunMatchesReference holds every bit of every Result to the
// reference loop: die sizes with idle cores (N > 9), uneven groups and
// one core; run lengths below, at and past the demand period and a
// long run; every policy; and a hot and a cool qualification point.
// The memo, the demand rows, the per-row group order, the scratch
// sorts and the reused engine must change nothing.
func TestRunMatchesReference(t *testing.T) {
	env := sharedEnv()
	for _, n := range []int{1, 2, 3, 4, 8, 9, 16} {
		for _, epochs := range []int{1, 2, 3, 4, 7, 400} {
			if testing.Short() && epochs == 400 && n > 8 {
				continue
			}
			for _, tq := range []float64{345, 400} {
				s := newSim(t, env, n, epochs, tq)
				for _, p := range Policies() {
					got, err := s.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameBits(got, referenceRun(t, s, p)); diff != "" {
						t.Fatalf("N=%d epochs=%d Tqual=%g %v: %s", n, epochs, tq, p, diff)
					}
				}
			}
		}
	}
}

// TestStaticSolvesTwicePerRow pins the memo's admission rule through
// the sched_epoch_solves counter. A static run never changes its
// assignment, so each pass sees the P demand rows' keys over and over:
// each is solved at its first and second sighting and replayed after,
// 2·P fixed points per pass. No policy solves more epochs than it
// schedules.
func TestStaticSolvesTwicePerRow(t *testing.T) {
	reg := obs.NewRegistry()
	env := exp.NewEnv(exp.QuickOptions()).Instrument(nil, reg)
	s := newSim(t, env, 4, 400, 400)
	period, passes := len(s.epochs), env.Opts.SinkPasses
	if period != env.Opts.Epochs {
		t.Fatalf("demand period %d, want the suite's %d rows", period, env.Opts.Epochs)
	}
	epochsCtr, solves := reg.Counter("sched_epochs"), reg.Counter("sched_epoch_solves")
	for _, p := range Policies() {
		e0, s0 := epochsCtr.Value(), solves.Value()
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		de, ds := epochsCtr.Value()-e0, solves.Value()-s0
		if de != int64(passes*400) {
			t.Fatalf("%v: %d epochs counted, want %d", p, de, passes*400)
		}
		if ds > de {
			t.Fatalf("%v: %d solves for %d epochs", p, ds, de)
		}
		if p == Static && ds != int64(passes*2*period) {
			t.Fatalf("static: %d fixed points over %d passes, want 2·P = %d per pass", ds, passes, 2*period)
		}
		t.Logf("%v: %d of %d epochs solved", p, ds, de)
	}
}

// TestRunAllocsFlatInEpochs checks that the epoch loop allocates
// nothing: a static run's allocations do not grow with its length.
func TestRunAllocsFlatInEpochs(t *testing.T) {
	env := sharedEnv()
	allocs := func(epochs int) float64 {
		s := newSim(t, env, 4, epochs, 400)
		return testing.AllocsPerRun(3, func() {
			if _, err := s.Run(Static); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a400, a800 := allocs(400), allocs(800); a400 != a800 {
		t.Fatalf("a static run allocates %v times at 400 epochs and %v at 800", a400, a800)
	}
}
