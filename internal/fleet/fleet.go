// Package fleet scales the paper's single-chip lifetime model to
// populations: a deterministic, sharded Monte Carlo engine that samples
// per-chip process variation, draws every chip's time to first failure
// by inverse-CDF Weibull sampling from a perturbed core.LifetimeModel,
// and reports policy-conditioned fleet survival curves and
// warranty-return rates.
//
// The paper's qualification argument (Section 3.7) is really a
// population claim — a 4000-FIT budget is chosen so the consumer
// service life falls far out in the tails of the lifetime distribution.
// This engine quantifies those tails directly: what fraction of a
// million shipped parts fails inside the 7- and 11-year horizons under
// a given DRM policy, and how failure-response scenarios move that
// fraction — in-field spare-unit repair (Ghahroodi & Zwolinski)
// resamples the failed component, and checkpointing modes (Prabakaran
// et al.) scale the effective stress duty cycle.
//
// Determinism contract: a chip's outcome is a pure function of
// (Config.Seed, chip index) — see rng.go — and shards are fixed-size
// blocks of the chip index space whose partial sums merge in shard
// order. Results are therefore bitwise identical at any worker count.
// ShardSize is part of the contract (it fixes the float summation
// grouping), which is why it is a config knob and not derived from the
// worker count.
package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"ramp/internal/core"
	"ramp/internal/obs"
	"ramp/internal/splitmix"
)

// HoursPerYear converts Weibull scales (hours) to reported years.
const HoursPerYear = 8760

// Warranty horizons (years): the paper's footnote 1 cites ~7 years of
// server-class service life and ~11 years for the long tail of consumer
// use; the report carries exact failed-fractions at both.
const (
	Warranty7Years  = 7
	Warranty11Years = 11
)

// Policy names one DRM operating policy by the RAMP assessment it
// produces (e.g. the base machine at T_qual = 400 K, or the DVS
// configuration a DRM oracle picked at 370 K). The engine turns each
// assessment into a Weibull lifetime model via core.NewLifetimeModel.
type Policy struct {
	Name       string
	Assessment core.Assessment
}

// Scenario is one failure-response mode layered on top of every policy.
type Scenario struct {
	Name string
	// Duty is the fraction of calendar time the chip spends under full
	// stress, in (0, 1]. Checkpointing modes spend the remainder in a
	// low-stress checkpoint/restore state with negligible wear, so a
	// chip whose intrinsic (stress-time) lifetime is t fails at
	// calendar time t/Duty.
	Duty float64
	// Spares is the number of in-field spare units: each repair
	// replaces the component that failed with a fresh one (its
	// lifetime is resampled from the component's own distribution,
	// aging from zero at the repair instant) and the chip runs on. The
	// chip fails when a failure occurs with no spare left.
	Spares int
}

// NominalScenario is continuous full-stress operation with no repair.
func NominalScenario() Scenario { return Scenario{Name: "nominal", Duty: 1} }

// Config sizes and seeds one fleet simulation.
type Config struct {
	// Chips is the fleet population size.
	Chips int
	// Seed roots every per-chip random stream.
	Seed uint64
	// Workers bounds concurrent shard workers (0 = GOMAXPROCS).
	// Results do not depend on it.
	Workers int
	// ShardSize is the fixed number of chips per shard. Part of the
	// determinism contract: it fixes the float-summation grouping, so
	// two runs agree bitwise only when their ShardSize agrees.
	ShardSize int
	// HorizonYears is the survival-curve horizon.
	HorizonYears float64
	// Bins is the number of survival-curve bins across the horizon.
	Bins int
	// Shapes are the per-mechanism Weibull wear-out shapes shared by
	// every policy.
	Shapes core.WeibullShapes
	// Variation is the per-chip process-variation model.
	Variation VariationParams
	// Scenarios are the failure-response modes evaluated for every
	// policy; each (policy, scenario) pair gets its own report row.
	Scenarios []Scenario
}

// DefaultConfig returns a production-shaped configuration: 8192-chip
// shards, a 30-year horizon at half-year resolution, the default
// wear-out shapes and variation model, and the nominal scenario.
func DefaultConfig(chips int, seed uint64) Config {
	return Config{
		Chips:        chips,
		Seed:         seed,
		ShardSize:    8192,
		HorizonYears: 30,
		Bins:         60,
		Shapes:       core.DefaultShapes(),
		Variation:    DefaultVariation(),
		Scenarios:    []Scenario{NominalScenario()},
	}
}

// Metric names an instrumented Engine registers.
const (
	MetricRuns    = "fleet_runs_total"   // completed fleet simulations
	MetricChips   = "fleet_chips_total"  // chips simulated to failure
	MetricShards  = "fleet_shards_total" // shards processed
	MetricShardUS = "fleet_shard_us"     // wall time per shard
)

// Engine is a compiled fleet simulation: config plus per-policy cell
// models. Create with New; an Engine is immutable and safe for
// concurrent Run calls.
type Engine struct {
	cfg      Config
	policies []compiledPolicy
	models   []*core.LifetimeModel // parallel to policies (report metadata)
	invBeta  [numCells]float64
	spares   int          // largest Spares over the scenarios
	tab      *boundTables // shared, read-only

	tracer  *obs.Tracer
	runs    *obs.Counter
	chips   *obs.Counter
	shards  *obs.Counter
	shardUS *obs.Histogram
}

// New validates cfg and compiles the policies.
func New(cfg Config, policies []Policy) (*Engine, error) {
	if cfg.Chips < 1 {
		return nil, fmt.Errorf("fleet: Chips %d < 1", cfg.Chips)
	}
	if cfg.ShardSize < 1 {
		return nil, fmt.Errorf("fleet: ShardSize %d < 1", cfg.ShardSize)
	}
	if cfg.Bins < 1 || cfg.Bins > 4096 {
		return nil, fmt.Errorf("fleet: Bins %d outside [1, 4096]", cfg.Bins)
	}
	if !(cfg.HorizonYears > 0 && cfg.HorizonYears <= 1000) {
		return nil, fmt.Errorf("fleet: HorizonYears %v outside (0, 1000]", cfg.HorizonYears)
	}
	if err := cfg.Variation.Validate(); err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("fleet: no policies")
	}
	if len(policies) > 64 {
		return nil, fmt.Errorf("fleet: %d policies (max 64)", len(policies))
	}
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("fleet: no scenarios")
	}
	if len(cfg.Scenarios) > 16 {
		return nil, fmt.Errorf("fleet: %d scenarios (max 16)", len(cfg.Scenarios))
	}
	for _, sc := range cfg.Scenarios {
		if !(sc.Duty > 0 && sc.Duty <= 1) {
			return nil, fmt.Errorf("fleet: scenario %q duty %v outside (0, 1]", sc.Name, sc.Duty)
		}
		if sc.Spares < 0 || sc.Spares > maxSpares {
			return nil, fmt.Errorf("fleet: scenario %q spares %d outside [0, %d]", sc.Name, sc.Spares, maxSpares)
		}
	}
	e := &Engine{cfg: cfg, tab: tables()}
	for _, sc := range cfg.Scenarios {
		e.spares = max(e.spares, sc.Spares)
	}
	var err error
	if e.invBeta, err = invBetaGrid(cfg.Shapes); err != nil {
		return nil, err
	}
	for _, p := range policies {
		cp, lm, err := compilePolicy(p.Name, p.Assessment, cfg.Shapes)
		if err != nil {
			return nil, err
		}
		e.policies = append(e.policies, cp)
		e.models = append(e.models, lm)
	}
	return e, nil
}

// Instrument attaches observability: a span per run and per shard on
// tr, and the fleet_* metrics on reg. Either may be nil. Observational
// only — results are byte-identical with it on or off.
func (e *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) *Engine {
	e.tracer = tr
	e.runs = reg.Counter(MetricRuns)
	e.chips = reg.Counter(MetricChips)
	e.shards = reg.Counter(MetricShards)
	e.shardUS = reg.Histogram(MetricShardUS)
	return e
}

// ScenarioReport is one (policy, scenario) row of the fleet outcome.
type ScenarioReport struct {
	Policy   string
	Scenario string
	Chips    int

	// MeanYears and StdYears summarize the sampled calendar-lifetime
	// distribution (all chips, including beyond-horizon survivors).
	MeanYears float64
	StdYears  float64

	// Return7 and Return11 are the exact fractions of the fleet failed
	// by the 7- and 11-year warranty horizons.
	Return7  float64
	Return11 float64

	// SurvivalYears[k] / Survival[k] trace the fleet survival curve:
	// Survival[k] is the fraction still alive at SurvivalYears[k]
	// (failures at exactly the edge count as still alive there; the
	// warranty fields above use inclusive comparisons instead).
	SurvivalYears []float64
	Survival      []float64

	// FailMix is the fraction of chips whose terminal failure (the one
	// no spare covered) came from each mechanism.
	FailMix [core.NumMechanisms]float64
}

// Report is the outcome of one fleet run.
type Report struct {
	Chips     int
	Seed      uint64
	Shards    int
	ShardSize int

	// MTTFYears is the per-policy analytic series-system MTTF of the
	// nominal (unvaried) chip — the single-chip number the paper
	// reports, carried alongside the population view for context.
	Policies  []string
	MTTFYears []float64

	// Results holds one row per (policy, scenario), policy-major in
	// input order.
	Results []ScenarioReport
}

// accum is one shard's tallies for one (policy, scenario) pair. Plain
// integers plus one float sum per shard: merging across shards in
// shard-index order is associative for the integers and fixes the float
// rounding order.
type accum struct {
	bins      []int64 // len Bins+1; last slot = survived past horizon
	fail7     int64
	fail11    int64
	mech      [core.NumMechanisms]int64
	sumYears  float64
	sumYears2 float64
}

// maxSpares bounds Scenario.Spares, and with it the sampler's
// selection width.
const maxSpares = 16

// shardState is one worker's per-chip scratch, reused across every chip
// the worker processes — the chip loop allocates nothing. Per-cell
// values other than the draws and bounds are valid only for the cells
// the chip evaluated.
type shardState struct {
	lifeX [numCells]uint64      // 53-bit lifetime draws
	svX   [numStructs][2]uint64 // 53-bit structure-variation draw pairs
	lg    [numMechs]float64     // leakage factor L^γ per mechanism
	lo    [numCells]float64     // log z bounds
	hi    [numCells]float64

	zDone  uint64                 // cells whose k and z are evaluated
	svDone uint64                 // structures whose sv is evaluated
	sv     [numStructs]float64    // structure variation factors
	k      [numCells]float64      // FIT multipliers sv·L^γ
	z      [numCells]float64      // draw transforms (−ln u)^(1/β) / k
	t      [numCells]float64      // per-policy intrinsic failure times
	work   [numCells]float64      // scenario scratch (mutated by repairs)
	slots  [maxSpares + 1]float64 // smallest upper bounds, ascending
	cand   [numCells]uint8        // candidate cells, ascending
}

// Run simulates the fleet. ctx is checked at every shard boundary, so a
// cancelled caller stops within one shard (ShardSize chips) of work.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	ctx, span := e.tracer.StartTrack(ctx, "fleet.run")
	if span.Enabled() {
		span.AnnotateInt("chips", int64(e.cfg.Chips))
		span.AnnotateInt("policies", int64(len(e.policies)))
		span.AnnotateInt("scenarios", int64(len(e.cfg.Scenarios)))
	}
	defer span.End()

	accs := e.shardAccums()
	if err := e.runShards(ctx, accs); err != nil {
		return nil, err
	}
	rep := e.buildReport(e.mergeShards(accs), len(accs))
	e.runs.Inc()
	e.chips.Add(int64(e.cfg.Chips))
	if span.Enabled() {
		span.AnnotateInt("elapsed_us", time.Since(start).Microseconds())
	}
	return rep, nil
}

// shardAccums allocates one flat accumulator block per shard up front,
// so the simulation itself is allocation-free.
func (e *Engine) shardAccums() [][]accum {
	nShards := (e.cfg.Chips + e.cfg.ShardSize - 1) / e.cfg.ShardSize
	rows := len(e.policies) * len(e.cfg.Scenarios)
	accs := make([][]accum, nShards)
	binBacking := make([]int64, nShards*rows*(e.cfg.Bins+1))
	for sh := range accs {
		accs[sh] = make([]accum, rows)
		for r := range accs[sh] {
			off := (sh*rows + r) * (e.cfg.Bins + 1)
			accs[sh][r].bins = binBacking[off : off+e.cfg.Bins+1]
		}
	}
	return accs
}

// mergeShards sums the shard tallies in shard-index order (the
// determinism contract).
func (e *Engine) mergeShards(accs [][]accum) []accum {
	merged := make([]accum, len(e.policies)*len(e.cfg.Scenarios))
	for r := range merged {
		merged[r].bins = make([]int64, e.cfg.Bins+1)
	}
	for sh := range accs {
		for r := range merged {
			m, a := &merged[r], &accs[sh][r]
			for b := range m.bins {
				m.bins[b] += a.bins[b]
			}
			m.fail7 += a.fail7
			m.fail11 += a.fail11
			for i := range m.mech {
				m.mech[i] += a.mech[i]
			}
			m.sumYears += a.sumYears
			m.sumYears2 += a.sumYears2
		}
	}
	return merged
}

// runShards drains the shard indices through a bounded worker pool,
// checking ctx at every shard boundary. Worker count never influences
// results: each shard writes only its own accs slot.
func (e *Engine) runShards(ctx context.Context, accs [][]accum) error {
	nShards := len(accs)
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, nShards)
	idx := make(chan int)
	var wg sync.WaitGroup
	// Each worker is joined via the WaitGroup, bounded by the range
	// over idx (closed by the feeder), and stopped by the per-shard ctx
	// check.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st shardState
			for sh := range idx {
				if ctx.Err() != nil {
					return
				}
				shardStart := time.Now()
				_, ss := e.tracer.Start(ctx, "fleet.shard")
				ss.AnnotateInt("shard", int64(sh))
				lo := sh * e.cfg.ShardSize
				hi := min(lo+e.cfg.ShardSize, e.cfg.Chips)
				e.simulateShard(&st, accs[sh], lo, hi)
				ss.End()
				e.shards.Inc()
				e.shardUS.Observe(time.Since(shardStart).Microseconds())
			}
		}()
	}
	var err error
feed:
	for sh := 0; sh < nShards; sh++ {
		select {
		case idx <- sh:
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

// simulateShard runs chips [lo, hi) into acc. Zero allocations per chip
// (TestSimulateShardZeroAlloc); everything it touches lives in st, acc
// or the engine's immutable tables.
func (e *Engine) simulateShard(st *shardState, acc []accum, lo, hi int) {
	binW := e.cfg.HorizonYears / float64(e.cfg.Bins)
	for chip := lo; chip < hi; chip++ {
		e.simulateChip(st, uint64(chip), acc, binW)
	}
}

// simulateChip draws one chip's variates, bounds every cell's lifetime,
// and plays the cells that can fail first through every
// (policy, scenario) pair under common random numbers.
//
//ramp:hot
func (e *Engine) simulateChip(st *shardState, chip uint64, acc []accum, binW float64) {
	e.boundCells(st, e.drawChip(st, chip))

	nscen := len(e.cfg.Scenarios)
	for pi := range e.policies {
		p := &e.policies[pi]
		cand := e.candidates(st, p)
		// The first failure is common to every scenario: a duty cycle
		// only rescales it, and repairs start from it.
		t0, c0 := firstFailure(&st.t, cand)
		for si := range e.cfg.Scenarios {
			sc := &e.cfg.Scenarios[si]
			tFail, cFail := t0, c0
			if sc.Spares > 0 {
				for _, c := range cand {
					st.work[c] = st.t[c]
				}
				// Repairs draw from a substream split by (policy,
				// scenario): the failing component differs across
				// policies, so sharing one stream would let one
				// policy's repair count shift another's draws.
				rr := chipStream(e.cfg.Seed, saltRepair^splitmix.Mix64(uint64(pi)<<32|uint64(si)), chip)
				for rep := 0; rep < sc.Spares; rep++ {
					u := rr.Uniform()
					w := math.Exp(e.invBeta[cFail] * math.Log(-math.Log(u)))
					st.work[cFail] = tFail + p.eta[cFail]*(w/st.k[cFail])
					tFail, cFail = firstFailure(&st.work, cand)
				}
			}
			years := tFail / (HoursPerYear * sc.Duty)
			a := &acc[pi*nscen+si]
			if years <= Warranty7Years {
				a.fail7++
			}
			if years <= Warranty11Years {
				a.fail11++
			}
			a.mech[cellMechanism(cFail)]++
			a.sumYears += years
			a.sumYears2 += years * years
			idx := int(years / binW)
			if idx >= e.cfg.Bins {
				idx = e.cfg.Bins // survived past the horizon
			}
			a.bins[idx]++
		}
	}
}

// drawChip draws every variate of one chip in stream order: the
// leakage lognormal, evaluated exactly into st.lg, then each
// structure's two uniforms and each cell's lifetime uniform, kept as
// 53-bit values for the bounds and for lazy evaluation. It returns
// ln L and clears the chip's evaluation masks.
//
//ramp:hot
func (e *Engine) drawChip(st *shardState, chip uint64) (lnL float64) {
	v := &e.cfg.Variation
	vr := chipStream(e.cfg.Seed, saltVariation, chip)
	for m := range st.lg {
		st.lg[m] = 1
	}
	if v.LeakSigma > 0 {
		u1 := vr.Uniform()
		u2 := vr.Uniform()
		lnL = math.Log(lognormal(u1, u2, v.LeakSigma))
		for m := range st.lg {
			st.lg[m] = math.Exp(v.LeakGamma[m] * lnL)
		}
	}
	if v.StructSigma > 0 {
		for s := range st.svX {
			st.svX[s][0] = vr.Next() >> 11
			st.svX[s][1] = vr.Next() >> 11
		}
	}
	lr := chipStream(e.cfg.Seed, saltLifetime, chip)
	for c := range st.lifeX {
		st.lifeX[c] = lr.Next() >> 11
	}
	st.zDone, st.svDone = 0, 0
	return lnL
}

// candidates returns p's active cells, in ascending order, whose lower
// bound is at most τ, the (S+1)-th smallest upper bound for S =
// e.spares, and sets their exact failure times in st.t. Every other
// cell fails after at least S+1 cells; a scenario's repairs replace at
// most S of them, so one unreplaced cell no later than τ is always
// left, and no other cell can ever be a scenario's minimum.
//
//ramp:hot
func (e *Engine) candidates(st *shardState, p *compiledPolicy) []uint8 {
	slots := st.slots[:e.spares+1]
	for j := range slots {
		slots[j] = math.Inf(1)
	}
	for _, c := range p.active {
		v := st.hi[c] + p.logEta[c]
		for j := range slots {
			slots[j], v = min(slots[j], v), max(slots[j], v)
		}
	}
	tau := slots[e.spares]
	n := 0
	for _, c := range p.active {
		if st.lo[c]+p.logEta[c] <= tau {
			st.t[c] = p.eta[c] * e.exactZ(st, int(c))
			st.cand[n] = c
			n++
		}
	}
	return st.cand[:n]
}

// exactZ returns cell c's z = (−ln u)^(1/β) / k, evaluating it (and the
// structure factor in k) at most once per chip.
//
//ramp:hot
func (e *Engine) exactZ(st *shardState, c int) float64 {
	if st.zDone&(1<<c) == 0 {
		s := c / numMechs
		if st.svDone&(1<<s) == 0 {
			st.sv[s] = 1
			if sigma := e.cfg.Variation.StructSigma; sigma > 0 {
				st.sv[s] = lognormal(uniform(st.svX[s][0]), uniform(st.svX[s][1]), sigma)
			}
			st.svDone |= 1 << s
		}
		st.k[c] = st.sv[s] * st.lg[c%numMechs]
		st.z[c] = math.Exp(e.invBeta[c]*math.Log(-math.Log(uniform(st.lifeX[c])))) / st.k[c]
		st.zDone |= 1 << c
	}
	return st.z[c]
}

// firstFailure returns the smallest time among the candidate cells and
// its cell, the lowest-indexed on a tie.
//
//ramp:hot
func firstFailure(t *[numCells]float64, cand []uint8) (float64, int) {
	best, arg := t[cand[0]], int(cand[0])
	for _, c := range cand[1:] {
		if t[c] < best {
			best, arg = t[c], int(c)
		}
	}
	return best, arg
}

// buildReport turns merged tallies into the public Report.
func (e *Engine) buildReport(merged []accum, nShards int) *Report {
	rep := &Report{
		Chips:     e.cfg.Chips,
		Seed:      e.cfg.Seed,
		Shards:    nShards,
		ShardSize: e.cfg.ShardSize,
	}
	for pi, p := range e.policies {
		rep.Policies = append(rep.Policies, p.name)
		rep.MTTFYears = append(rep.MTTFYears, e.models[pi].MTTFYears())
	}
	n := float64(e.cfg.Chips)
	binW := e.cfg.HorizonYears / float64(e.cfg.Bins)
	nscen := len(e.cfg.Scenarios)
	for pi := range e.policies {
		for si := range e.cfg.Scenarios {
			a := &merged[pi*nscen+si]
			sr := ScenarioReport{
				Policy:    e.policies[pi].name,
				Scenario:  e.cfg.Scenarios[si].Name,
				Chips:     e.cfg.Chips,
				MeanYears: a.sumYears / n,
				Return7:   float64(a.fail7) / n,
				Return11:  float64(a.fail11) / n,
			}
			variance := a.sumYears2/n - (a.sumYears/n)*(a.sumYears/n)
			if variance > 0 {
				sr.StdYears = math.Sqrt(variance)
			}
			var cum int64
			sr.SurvivalYears = make([]float64, e.cfg.Bins)
			sr.Survival = make([]float64, e.cfg.Bins)
			for k := 0; k < e.cfg.Bins; k++ {
				cum += a.bins[k]
				sr.SurvivalYears[k] = float64(k+1) * binW
				sr.Survival[k] = 1 - float64(cum)/n
			}
			for m := range sr.FailMix {
				sr.FailMix[m] = float64(a.mech[m]) / n
			}
			rep.Results = append(rep.Results, sr)
		}
	}
	return rep
}

// SurvivalAt returns the curve's survival fraction at the last edge not
// after years (1 before the first edge).
func (sr *ScenarioReport) SurvivalAt(years float64) float64 {
	s := 1.0
	for k, ty := range sr.SurvivalYears {
		if ty > years {
			break
		}
		s = sr.Survival[k]
	}
	return s
}

// WriteTable renders the report as a fixed-width table (golden-stable:
// every number prints through explicit precision).
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Fleet Monte Carlo: %d chips, seed %d, %d shards x %d\n",
		r.Chips, r.Seed, r.Shards, r.ShardSize)
	for i, p := range r.Policies {
		fmt.Fprintf(w, "  policy %-18s nominal-chip MTTF %8.2f years\n", p, r.MTTFYears[i])
	}
	fmt.Fprintf(w, "%-18s %-12s %9s %9s %8s %8s %8s %8s %8s  %s\n",
		"policy", "scenario", "mean-y", "std-y", "ret7%", "ret11%", "S(11y)", "S(15y)", "S(20y)", "fail-mix EM/SM/TDDB/TC %")
	for i := range r.Results {
		sr := &r.Results[i]
		fmt.Fprintf(w, "%-18s %-12s %9.2f %9.2f %8.3f %8.3f %8.4f %8.4f %8.4f  %.1f/%.1f/%.1f/%.1f\n",
			sr.Policy, sr.Scenario, sr.MeanYears, sr.StdYears,
			100*sr.Return7, 100*sr.Return11,
			sr.SurvivalAt(11), sr.SurvivalAt(15), sr.SurvivalAt(20),
			100*sr.FailMix[core.EM], 100*sr.FailMix[core.SM],
			100*sr.FailMix[core.TDDB], 100*sr.FailMix[core.TC])
	}
}
