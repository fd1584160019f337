// Package exp is the experiment harness: it glues the timing simulator,
// power model, thermal model and RAMP together exactly as Section 6.3
// describes, and regenerates every table and figure of the paper's
// evaluation (Section 7).
//
// One Evaluate call reproduces the paper's per-run methodology:
//
//  1. Simulate the application in epochs, collecting per-epoch activity.
//  2. First pass: average power at an assumed temperature initialises
//     the heat-sink steady-state temperature (the sink's RC constant is
//     far larger than any simulated run).
//  3. Second pass: per-epoch block temperatures from the quasi-steady
//     thermal solve with the sink pinned, iterating the
//     leakage-temperature feedback to a fixed point per epoch.
//  4. RAMP folds every epoch's conditions into the application FIT value.
package exp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
	"ramp/internal/sim"
	"ramp/internal/stats"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

// Options controls simulation length and methodology knobs.
type Options struct {
	WarmupInstrs uint64 // instructions simulated before measurement
	EpochInstrs  uint64 // instructions per epoch
	Epochs       int    // measured epochs
	Seed         int64

	// LeakageIters is the number of power<->temperature fixed-point
	// iterations per epoch; SinkPasses the number of heat-sink passes
	// (the paper uses two).
	LeakageIters int
	SinkPasses   int

	// TolK enables adaptive convergence in the per-epoch fixed point:
	// iteration stops as soon as the largest per-block temperature update
	// falls below TolK kelvin (never exceeding LeakageIters). The
	// feedback is a contraction, so an early exit perturbs temperatures
	// by at most ~TolK and cuts iterations on cool/low-power
	// configurations. 0 disables the early exit (always run LeakageIters,
	// bitwise-identical to the fixed-count behaviour).
	TolK float64

	// DropEpochRows keeps the per-epoch rows out of Results and the
	// evaluation cache, keeping only aggregates and the RAMP exposure.
	// Sweeps over hundreds of candidates hold every Result alive; the
	// rows dominate that memory and most callers only read aggregates.
	// Requalify needs only the exposure, so it still works.
	DropEpochRows bool
}

// DefaultOptions returns run lengths that reach cache steady state for
// the built-in workloads while keeping full adaptation sweeps tractable.
func DefaultOptions() Options {
	return Options{
		WarmupInstrs: 300_000,
		EpochInstrs:  100_000,
		Epochs:       6,
		Seed:         1,
		LeakageIters: 4,
		SinkPasses:   2,
		//rampvet:ignore unitsafety -- TolK is a temperature *difference*, not an absolute temperature
		TolK: DefaultTolK,
	}
}

// DefaultTolK is the default fixed-point convergence tolerance (kelvin).
// It is far below any physically meaningful temperature difference and
// below the precision of every reported figure, so enabling it preserves
// all results; see DESIGN.md §7.
const DefaultTolK = 1e-5

// QuickOptions returns much shorter runs for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		WarmupInstrs: 60_000,
		EpochInstrs:  40_000,
		Epochs:       3,
		Seed:         1,
		LeakageIters: 3,
		SinkPasses:   2,
		//rampvet:ignore unitsafety -- TolK is a temperature *difference*, not an absolute temperature
		TolK: DefaultTolK,
	}
}

// Env bundles the shared models of one experimental setup. It is
// immutable after construction (the internal result cache is
// concurrency-safe) and safe for concurrent Evaluate calls.
type Env struct {
	Tech    config.Tech
	Base    config.Proc
	FP      *floorplan.Floorplan
	Power   *power.Model
	Thermal *thermal.Model // the one-core die of FP
	Params  core.Params
	Opts    Options

	// Trace and Metrics are the observability hooks installed by
	// Instrument; both are nil by default, which makes every span and
	// metric update in the pipeline a nil-check no-op (zero-alloc on the
	// epoch hot path).
	Trace   *obs.Tracer
	Metrics *obs.Registry

	obs       expInstruments
	fitTimers *core.FITTimers

	// cache memoizes evaluations by (app, proc, Options) so sweeps that
	// revisit a configuration — the base machine inside every adaptation
	// sweep, overlapping Arch/DVS/ArchDVS candidate sets, repeated
	// figure regenerations — simulate each distinct point once.
	cache evalCache
}

// NewEnv builds the standard environment: 65 nm technology, Table 1 base
// processor, R10000-like floorplan, default power budget and package.
func NewEnv(opts Options) *Env {
	tech := config.Tech65nm()
	fp := floorplan.R10000Like()
	return &Env{
		Tech:    tech,
		Base:    config.Base(),
		FP:      fp,
		Power:   power.NewModel(fp, tech),
		Thermal: thermal.MustNew(floorplan.MustNewDie(fp, 1), thermal.DefaultParams(tech.AmbientK)),
		Params:  core.DefaultParams(core.TCAmbientK),
		Opts:    opts,
	}
}

// NewCustomEnv builds an environment from explicit parts — used by the
// technology-scaling study, which ports the base microarchitecture
// across process nodes with scaled floorplans and power budgets.
func NewCustomEnv(tech config.Tech, base config.Proc, fp *floorplan.Floorplan, budget power.Vector, opts Options) *Env {
	return &Env{
		Tech:    tech,
		Base:    base,
		FP:      fp,
		Power:   power.NewModelWithBudget(fp, tech, budget),
		Thermal: thermal.MustNew(floorplan.MustNewDie(fp, 1), thermal.DefaultParams(tech.AmbientK)),
		Params:  core.DefaultParams(core.TCAmbientK),
		Opts:    opts,
	}
}

// Qualification returns the qualification point for a given T_qual using
// the environment's base operating point and suite activity (Section
// 3.7: V_qual and f_qual are the base processor's, A_qual is the highest
// activity factor across the suite).
func (e *Env) Qualification(tqualK float64) core.Qualification {
	return core.Qualification{
		TqualK:    tqualK,
		VqualV:    e.Base.VddV,
		FqualHz:   e.Base.FreqHz,
		Aqual:     SuiteMaxActivity,
		TargetFIT: core.StandardTargetFIT,
	}
}

// SuiteMaxActivity is A_qual: the highest per-structure activity factor
// observed across the nine-application suite on the base processor
// (measured by TestSuiteMaxActivity; the AGU/LSQ/L1D cluster of the
// highest-IPC multimedia codes sets it).
const SuiteMaxActivity = 0.52

// EpochRow records one epoch's observables.
type EpochRow struct {
	Sim      sim.Result
	PowerW   power.Vector
	TempK    power.Vector
	TotalW   float64
	MaxTempK float64
}

// Result is the outcome of evaluating one (application, configuration)
// pair.
type Result struct {
	App  string
	Proc config.Proc

	IPC      float64
	BIPS     float64
	AvgW     float64
	MaxTempK float64
	AvgTempK float64 // area-weighted average die temperature
	SinkK    float64

	Assessment core.Assessment
	Epochs     []EpochRow

	// Exposure is the run's qualification-independent RAMP record, from
	// which Requalify and every cache hit derive the assessment at any
	// qualification point. Like Epochs it is shared with the evaluation
	// cache and read-only; unlike Epochs it survives DropEpochRows.
	Exposure *core.Exposure
}

// FIT returns the run's total FIT value.
func (r Result) FIT() float64 { return r.Assessment.TotalFIT }

// Evaluate runs app on proc and returns performance, power, thermal and
// reliability results. qual sets the RAMP qualification point.
//
// Results are memoized: the first call for a given (app, proc, Options)
// simulates; subsequent calls return the cached outcome. Simulation,
// power, temperature and the RAMP exposure are qualification-independent,
// so every call — the first included — derives its assessment by
// applying qual's budget to the cached exposure, and a cache hit equals
// a cold run bit for bit by construction. Concurrent calls for the same
// key share one simulation. Cached Results share their epoch rows and
// exposure; callers must treat both as read-only.
func (e *Env) Evaluate(app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	return e.EvaluateCtx(context.Background(), app, proc, qual)
}

// EvaluateCtx is Evaluate with cancellation: the simulation checks ctx
// at every epoch boundary, so an abandoned caller (a closed HTTP
// request, an expired deadline) stops burning simulation time within
// one epoch. A cancelled flight never poisons the cache — the entry is
// dropped and the next caller for the same key simulates afresh; a
// waiter that joined a flight whose leader was cancelled retakes
// leadership itself.
func (e *Env) EvaluateCtx(ctx context.Context, app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	budget, err := core.NewBudget(e.FP, e.Params, qual)
	if err != nil {
		return Result{}, err
	}
	key := e.keyFor(app.Name, proc)
	var ent *cacheEntry
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		var leader bool
		ent, leader = e.cache.acquire(key)
		if leader {
			e.obs.cacheMisses.Inc()
			ar := getArena()
			ent.res, ent.err = e.evaluate(ctx, app, proc, ar)
			putArena(ar)
			if ent.err != nil && isCtxErr(ent.err) {
				e.cache.abandon(key, ent)
				return Result{}, ent.err
			}
			e.cache.complete(ent)
			e.obs.cacheEntries.Set(int64(e.cache.Len()))
			break
		}
		select {
		case <-ent.done:
			if ent.ready.Load() {
				// Completed flight (success or a real error).
				e.cache.hits.Add(1)
				e.obs.cacheHits.Inc()
			} else {
				// The leader was cancelled; retry (possibly as leader).
				continue
			}
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		break
	}
	if ent.err != nil {
		return Result{}, ent.err
	}
	res := ent.res
	res.Assessment = budget.Assess(res.Exposure)
	// The stored result may carry a different cosmetic Proc.Name for the
	// same configuration; report the caller's.
	res.App = app.Name
	res.Proc = proc
	return res, nil
}

// keyFor builds the cache key for an (application, configuration) pair.
func (e *Env) keyFor(app string, proc config.Proc) evalKey {
	proc.Name = ""
	return evalKey{app: app, proc: proc, opts: e.Opts}
}

// CachedEvaluations reports how many distinct (app, proc) points have
// been simulated (diagnostic).
func (e *Env) CachedEvaluations() int { return e.cache.Len() }

// CacheStats snapshots the evaluation cache's hit/miss/entry counters
// (consumed by the rampserve /metrics endpoint and by singleflight
// assertions in tests).
func (e *Env) CacheStats() CacheStats { return e.cache.Stats() }

// evaluate is the uncached, qualification-independent evaluation
// pipeline: it returns everything but the assessment, which EvaluateCtx
// derives from the exposure. ar supplies the scratch state (see
// evalArena). ctx is checked at every epoch boundary of both the timing
// simulation and the thermal passes. Evaluations run concurrently on the
// worker pool, so the evaluation span opens a fresh track; everything
// below it nests on that track.
func (e *Env) evaluate(ctx context.Context, app trace.Profile, proc config.Proc, ar *evalArena) (Result, error) {
	evalStart := time.Now()
	ctx, evalSpan := e.Trace.StartTrack(ctx, "exp.evaluate")
	if evalSpan.Enabled() {
		evalSpan.Annotate(obs.Str("app", app.Name), obs.Str("proc", proc.Name))
	}
	defer evalSpan.End()

	gen, err := ar.generator(app, e.Opts.Seed)
	if err != nil {
		return Result{}, err
	}
	c, err := ar.coreFor(proc, gen)
	if err != nil {
		return Result{}, err
	}
	c.Instrument(e.obs.simRetired, e.obs.simCycles)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if e.Opts.WarmupInstrs > 0 {
		_, ws := e.Trace.Start(ctx, "sim.warmup")
		c.Run(e.Opts.WarmupInstrs)
		ws.End()
	}
	epochs := ar.epochRows(e.Opts.Epochs)
	for i := range epochs {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		_, es := e.Trace.Start(ctx, "sim.epoch")
		es.AnnotateInt("epoch", int64(i))
		epochs[i].Sim = c.Run(e.Opts.EpochInstrs)
		es.End()
		e.obs.epochs.Inc()
	}

	on := power.OnFractions(proc, e.Base)
	var (
		act   power.Vector
		acts  = []*power.Vector{&act}
		temps [floorplan.NumStructures + 1]float64 // the blocks, then the spreader
		prev  power.Vector
	)

	// Heat-sink passes: estimate average power, derive the sink
	// steady-state temperature, recompute temperatures, repeat.
	sinkK := e.Tech.AmbientK + 30 // initial guess
	var avgW float64
	for pass := 0; pass < max(1, e.Opts.SinkPasses); pass++ {
		passCtx, ps := e.Trace.Start(ctx, "thermal.sinkpass")
		ps.AnnotateInt("pass", int64(pass))
		var wSum, tSum float64
		for i := range epochs {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			row := &epochs[i]
			_, fs := e.Trace.Start(passCtx, "exp.fixedpoint")
			act = row.Sim.Activity
			iters := e.DieFixedPoint(e.Thermal, acts, &on, proc.VddV, proc.FreqHz, sinkK, temps[:], prev[:], row.PowerW[:])
			copy(row.TempK[:], temps[:])
			fs.AnnotateInt("epoch", int64(i))
			fs.AnnotateInt("iters", int64(iters))
			fs.End()
			e.obs.fpIters.Observe(int64(iters))
			row.TotalW = row.PowerW.Sum()
			row.MaxTempK = e.Thermal.MaxCoreTemp(temps[:], 0)
			wSum += row.TotalW * row.Sim.TimeSec
			tSum += row.Sim.TimeSec
		}
		avgW = wSum / tSum
		sinkK = e.Thermal.SinkSteadyTemp(avgW)
		ps.End()
	}

	// RAMP exposure: every rate model the run needs, evaluated once.
	_, as := e.Trace.Start(ctx, "ramp.assess")
	var res Result
	res.App = app.Name
	res.Proc = proc
	res.Exposure, err = core.NewExposure(e.Params, len(epochs), e.fitTimers, func(i int) core.Interval {
		row := &epochs[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       proc.VddV,
				FreqHz:     proc.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		return iv
	})
	if err != nil {
		return Result{}, err
	}
	as.End()
	var ipcMean, dieTempMean stats.Mean
	var timeSum, retired float64
	for i := range epochs {
		row := &epochs[i]
		timeSum += row.Sim.TimeSec
		retired += float64(row.Sim.Retired)
		ipcMean.AddWeighted(row.Sim.IPC, row.Sim.TimeSec)
		if row.MaxTempK > res.MaxTempK {
			res.MaxTempK = row.MaxTempK
		}
		var at float64
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			at += row.TempK[s] * e.FP.AreaFraction(s)
		}
		dieTempMean.AddWeighted(at, row.Sim.TimeSec)
	}
	res.IPC = ipcMean.Value()
	res.BIPS = retired / timeSum / 1e9
	res.AvgW = avgW
	res.AvgTempK = dieTempMean.Value()
	res.SinkK = sinkK
	// The rows filled above are arena scratch; the Result — and through
	// it the cache — gets one compact copy it owns forever.
	if !e.Opts.DropEpochRows {
		res.Epochs = append([]EpochRow(nil), epochs...)
	}
	e.obs.evaluations.Inc()
	e.obs.evalUS.Observe(time.Since(evalStart).Microseconds())
	return res, nil
}

// EpochConditions iterates the leakage-temperature feedback for one
// epoch of the single core — temperatures determine leakage, leakage
// determines power, power determines temperatures — and returns the
// per-structure temperatures and powers. It is the building block
// reactive controllers use to evaluate epochs online.
func (e *Env) EpochConditions(activity [floorplan.NumStructures]float64, on power.Vector, proc config.Proc, sinkK float64) (temps, pw power.Vector) {
	act := power.Vector(activity)
	var x [floorplan.NumStructures + 1]float64 // the blocks, then the spreader
	var prev power.Vector
	e.DieFixedPoint(e.Thermal, []*power.Vector{&act}, &on, proc.VddV, proc.FreqHz, sinkK, x[:], prev[:], pw[:])
	copy(temps[:], x[:])
	return temps, pw
}

// DieFixedPoint iterates the leakage-temperature feedback of one epoch
// on the die of m at one operating point (vdd, f) with the sink pinned
// at sinkK: temperatures determine leakage, leakage determines power,
// power determines temperatures. acts holds each core's activity and on
// the powered-on fractions every core shares. temps (m.Nodes()-1
// entries: the blocks, then the spreader) receives the temperatures and
// pw (m.NumBlocks() entries) the block powers that produced them; prev
// (m.NumBlocks() entries) is scratch for the convergence test. With
// Options.TolK > 0 the loop exits as soon as the largest block update
// falls below the tolerance; LeakageIters is always an upper bound, so
// the adaptive exit can only skip iterations whose effect would be under
// TolK. It returns the iteration count, which feeds the
// exp_fixedpoint_iters histogram and span annotations.
//
// The single-core evaluation, EpochConditions and the manycore
// scheduler all run this one loop; the single core is the one-core die.
//
//ramp:hot
func (e *Env) DieFixedPoint(m *thermal.Model, acts []*power.Vector, on *power.Vector, vdd, f, sinkK float64, temps, prev, pw []float64) int {
	nb := m.NumBlocks()
	ns := int(floorplan.NumStructures)
	for i := 0; i < nb; i++ {
		temps[i] = sinkK + 15
	}
	limit := max(1, e.Opts.LeakageIters)
	tol := e.Opts.TolK
	iters := 0
	for iters < limit {
		for c, act := range acts {
			lo := c * ns
			e.Power.ComputeInto(pw[lo:lo+ns], *act, *on, temps[lo:lo+ns], vdd, f)
		}
		copy(prev, temps[:nb])
		m.QuasiSteadyInto(temps, pw, sinkK)
		iters++
		if tol > 0 && maxAbsDelta(temps[:nb], prev) < tol {
			break
		}
	}
	return iters
}

// maxAbsDelta returns the largest per-component absolute difference.
//
//ramp:hot
func maxAbsDelta(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Requalify recomputes the RAMP assessment of an existing Result under a
// different qualification point by applying the point's budget to the
// Result's exposure: arithmetic only, no rate model and no simulation.
// Simulation, power and temperature do not depend on the qualification
// point, so exploring many T_qual values only needs one Evaluate per
// (application, configuration).
//
// The operating conditions — on-fractions, Vdd, f, temperatures and
// activity — are those recorded in the exposure when r was evaluated;
// r.Proc and r.Epochs are not consulted. To assess the run under other
// conditions, record a new exposure with core.NewExposure.
func (e *Env) Requalify(r Result, qual core.Qualification) (core.Assessment, error) {
	if r.Exposure == nil {
		return core.Assessment{}, fmt.Errorf("exp: Requalify %s/%s: no RAMP exposure (result was not produced by Evaluate)", r.App, r.Proc.Name)
	}
	b, err := core.NewBudget(e.FP, e.Params, qual)
	if err != nil {
		return core.Assessment{}, err
	}
	return b.Assess(r.Exposure), nil
}

// runPool drains n indexed jobs through a bounded worker pool — never
// more goroutines than can run — stopping early (without waiting for
// unstarted jobs) when ctx is cancelled. It returns ctx's error if the
// pool shut down early, nil once every job has run.
func runPool(ctx context.Context, n int, run func(i int)) error {
	workers := min(n, max(1, runtime.GOMAXPROCS(0)))
	idx := make(chan int)
	var wg sync.WaitGroup
	// Each worker is triply covered for goroleak's purposes: joined via
	// the WaitGroup, bounded by the range over idx (closed by the feeder
	// below), and cancelled by the per-job ctx check.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				run(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// EvalJob names one (application, processor, qualification) evaluation.
type EvalJob struct {
	App  trace.Profile
	Proc config.Proc
	Qual core.Qualification
}

// EvaluateAll runs the jobs concurrently (they are independent) and
// returns results in job order. A bounded worker pool — never more
// goroutines than can run — drains a job channel; a full ArchDVS sweep
// queues thousands of jobs without spawning thousands of blocked
// goroutines. The first error (in job order) aborts the batch.
func (e *Env) EvaluateAll(jobs []EvalJob) ([]Result, error) {
	return e.EvaluateAllCtx(context.Background(), jobs)
}

// EvaluateAllCtx is EvaluateAll with cancellation: unstarted jobs are
// never picked up once ctx is done, in-flight simulations stop at their
// next epoch boundary, and the batch returns ctx's error.
func (e *Env) EvaluateAllCtx(ctx context.Context, jobs []EvalJob) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	run := func(i int) { results[i], errs[i] = e.EvaluateCtx(ctx, jobs[i].App, jobs[i].Proc, jobs[i].Qual) }
	if err := runPool(ctx, len(jobs), run); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: job %d (%s/%s): %w", i, jobs[i].App.Name, jobs[i].Proc.Name, err)
		}
	}
	return results, nil
}
