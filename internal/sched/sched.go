// Package sched is the manycore lifetime-aware scheduler: it assigns
// the paper's nine-application suite to the cores of a tiled die each
// epoch and measures what the assignment policy does to chip lifetime.
//
// The paper qualifies one core against one workload; LifeSim-style
// follow-up work shows that on a manycore die reliability becomes a
// scheduling problem — wear accumulates per core, cores heat each
// other through shared silicon, and the policy that decides which core
// runs the hottest code decides which core dies first. This package
// compares three policies at identical performance:
//
//   - Static: workload group i runs on core i forever (the oracle-free
//     baseline every OS defaults to — also the best case for locality,
//     it never migrates).
//   - Coolest: each epoch the hottest group goes to the core that
//     measured coolest last epoch (temperature-reactive, wear-blind).
//   - WearLevel: each epoch the hottest group goes to the least-worn
//     core — equivalently, the most-worn core gets the coolest
//     workload — levelling accumulated damage rather than instantaneous
//     temperature.
//
// Iso-performance is by construction, not by measurement: the grouping
// of applications onto cores is computed once, before any policy runs
// (a snake deal of the suite by single-core average power into
// min(N, 9) groups), and every policy runs exactly those groups every
// epoch — only the group→core mapping differs. Total work, epoch
// durations and chip BIPS are therefore identical across policies, and
// lifetime is the only free variable.
package sched

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
	"ramp/internal/thermal"
)

// Policy selects the per-epoch group→core assignment rule.
type Policy int

// The three assignment policies.
const (
	Static      Policy = iota // group i pinned to core i
	Coolest                   // hottest group to the coolest core
	WearLevel                 // hottest group to the least-worn core
	NumPolicies               // count sentinel
)

var policyNames = [NumPolicies]string{
	Static: "static", Coolest: "coolest", WearLevel: "wearlevel",
}

// String returns the policy's short name.
func (p Policy) String() string {
	if p < 0 || p >= NumPolicies {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Policies returns all policies in comparison order.
func Policies() []Policy { return []Policy{Static, Coolest, WearLevel} }

// Config sizes one scheduling run.
type Config struct {
	NCores int
	// Epochs is the number of die scheduling epochs; each cycles through
	// the per-application epoch rows of the underlying evaluations.
	Epochs int
	// TqualK is the qualification temperature (the designer's cost
	// proxy, Section 3.7).
	TqualK float64
}

// DefaultConfig returns a run long enough for the policies to separate:
// twice around the suite's epoch rows.
func DefaultConfig(nCores int, opts exp.Options) Config {
	return Config{NCores: nCores, Epochs: 2 * max(1, opts.Epochs), TqualK: 400}
}

// Result is one policy's outcome on one die size.
type Result struct {
	Policy Policy
	NCores int

	Assessment core.DieAssessment

	// LifetimeYears is the wear lifetime the policies compete on: mean
	// time to the first core failure (the worst core's MTTF).
	LifetimeYears float64
	ChipFIT       float64
	ChipMTTFYears float64

	AvgW     float64
	MaxTempK float64
	BIPS     float64
	TimeSec  float64

	// Migrations counts group moves between consecutive epochs (Static
	// is always 0).
	Migrations int
	// CoreWear is each core's final wear accumulator (FIT·seconds).
	CoreWear []float64
}

// groupEpoch is one group's precomputed, policy-independent demand for
// one die epoch.
type groupEpoch struct {
	act     power.Vector // effective per-structure activity over the epoch
	heatW   float64      // single-core power proxy, orders groups hot→cold
	retired float64
}

// Simulator schedules the suite over one die size. Build it once per N
// with New and run each policy against it; the suite evaluations, die
// grouping and epoch demand tables are shared across policies (that
// sharing is the iso-performance guarantee).
//
// The demand is kept by row. Every application's epoch rows repeat
// with the period of its row count, so the die's demand repeats with
// period P, the lcm of the suite's row counts: die epoch e runs row
// e mod P, and only min(P, Epochs) rows are built.
type Simulator struct {
	env    *exp.Env
	cfg    Config
	die    *floorplan.Die
	model  *thermal.Model
	qual   core.Qualification
	groups [][]int // group -> suite app indices

	epochs   []float64      // per row: duration (makespan), seconds
	demand   [][]groupEpoch // [row][group]
	hotFirst [][]int        // [row]: groups, hottest first, ties by index
	retired  float64        // over all Epochs
}

// New prepares a simulator: evaluates the suite on the base processor
// (cached across die sizes), groups the applications, and precomputes
// every demand row's per-group demand.
func New(env *exp.Env, cfg Config) (*Simulator, error) {
	return NewCtx(context.Background(), env, cfg)
}

// NewCtx is New with cancellation (the suite evaluation dominates).
func NewCtx(ctx context.Context, env *exp.Env, cfg Config) (*Simulator, error) {
	if cfg.NCores < 1 {
		return nil, fmt.Errorf("sched: need at least one core, got %d", cfg.NCores)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("sched: need at least one epoch, got %d", cfg.Epochs)
	}
	die, err := floorplan.NewDie(env.FP, cfg.NCores)
	if err != nil {
		return nil, err
	}
	qual := env.Qualification(cfg.TqualK)
	suite, err := env.EvaluateSuiteCtx(ctx, qual)
	if err != nil {
		return nil, err
	}
	model, err := thermal.New(die, thermal.DieParams(env.Tech.AmbientK, cfg.NCores))
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		env:    env,
		cfg:    cfg,
		die:    die,
		model:  model,
		qual:   qual,
		groups: groupApps(suite, cfg.NCores),
	}
	s.buildDemand(suite)
	return s, nil
}

// groupApps deals the suite into min(n, len(suite)) groups by a snake
// deal over descending single-core average power: the hottest app goes
// to group 0, then down the groups and back up, so group heat is as
// balanced as a fixed grouping can be. Ties break by suite order; the
// result depends only on the suite evaluation, never on a policy.
func groupApps(suite []exp.Result, n int) [][]int {
	g := min(n, len(suite))
	order := make([]int, len(suite))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return suite[order[a]].AvgW > suite[order[b]].AvgW
	})
	groups := make([][]int, g)
	for pos, app := range order {
		round, off := pos/g, pos%g
		k := off
		if round%2 == 1 {
			k = g - 1 - off // snake back
		}
		groups[k] = append(groups[k], app)
	}
	return groups
}

// demandPeriod returns min(P, epochs), where P is the lcm of the
// suite's row counts: the number of distinct demand rows a run of
// epochs visits.
func demandPeriod(suite []exp.Result, epochs int) int {
	p := 1
	for i := range suite {
		n := len(suite[i].Epochs)
		a, b := p, n
		for b != 0 {
			a, b = b, a%b
		}
		if p = p / a * n; p >= epochs {
			return epochs
		}
	}
	return p
}

// buildDemand precomputes every demand row's per-group activity, heat
// proxy and duration from the suite's epoch rows, and each row's
// hottest-first group order. Group members run sequentially within an
// epoch; the die epoch is the makespan across groups, and shorter
// groups idle the remainder (their activity is scaled by busy time, the
// clock-gated idle floor covers the rest).
func (s *Simulator) buildDemand(suite []exp.Result) {
	g := len(s.groups)
	nrows := demandPeriod(suite, s.cfg.Epochs)
	s.epochs = make([]float64, nrows)
	s.demand = make([][]groupEpoch, nrows)
	s.hotFirst = make([][]int, nrows)
	for r := 0; r < nrows; r++ {
		s.demand[r] = make([]groupEpoch, g)
		var makespan float64
		busy := make([]float64, g)
		for k, apps := range s.groups {
			for _, a := range apps {
				rows := suite[a].Epochs
				row := &rows[r%len(rows)]
				busy[k] += row.Sim.TimeSec
			}
			if busy[k] > makespan {
				makespan = busy[k]
			}
		}
		s.epochs[r] = makespan
		dem := s.demand[r]
		for k, apps := range s.groups {
			d := &dem[k]
			for _, a := range apps {
				rows := suite[a].Epochs
				row := &rows[r%len(rows)]
				w := row.Sim.TimeSec / makespan
				for st := range d.act {
					d.act[st] += row.Sim.Activity[st] * w
				}
				d.heatW += row.TotalW * w
				d.retired += float64(row.Sim.Retired)
			}
		}
		order := make([]int, g)
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(a, b int) bool {
			return dem[order[a]].heatW > dem[order[b]].heatW
		})
		s.hotFirst[r] = order
	}
	for e := 0; e < s.cfg.Epochs; e++ {
		dem := s.demand[e%nrows]
		for k := range dem {
			s.retired += dem[k].retired
		}
	}
}

// Run executes one policy over the configured epochs.
func (s *Simulator) Run(p Policy) (Result, error) {
	return s.RunCtx(context.Background(), p)
}

// RunCtx is Run with cancellation, checked at every epoch boundary.
// The run follows the paper's two-pass heat-sink methodology: pass one
// estimates average chip power to set the shared sink temperature, pass
// two re-runs the schedule against the settled sink; wear and policy
// decisions restart each pass (the die engine is reset), and the final
// pass is reported.
func (s *Simulator) RunCtx(ctx context.Context, p Policy) (Result, error) {
	if p < 0 || p >= NumPolicies {
		return Result{}, fmt.Errorf("sched: unknown policy %v", p)
	}
	ctx, span := s.env.Trace.StartTrack(ctx, "sched.run")
	if span.Enabled() {
		span.Annotate(obs.Str("policy", p.String()))
		span.AnnotateInt("cores", int64(s.cfg.NCores))
	}
	defer span.End()

	var (
		res        Result
		sinkK      = s.env.Tech.AmbientK + 30 // initial guess, as in exp
		passes     = max(1, s.env.Opts.SinkPasses)
		migrations *obs.Counter
		epochsCtr  *obs.Counter
		solvesCtr  *obs.Counter
	)
	if s.env.Metrics != nil {
		migrations = s.env.Metrics.Counter("sched_migrations")
		epochsCtr = s.env.Metrics.Counter("sched_epochs")
		solvesCtr = s.env.Metrics.Counter("sched_epoch_solves")
	}
	engine, err := core.NewDieEngine(s.die, s.env.Params, s.qual)
	if err != nil {
		return Result{}, err
	}
	st := newRunState(s)
	for pass := 0; pass < passes; pass++ {
		engine.Reset()
		passCtx, ps := s.env.Trace.Start(ctx, "sched.sinkpass")
		ps.AnnotateInt("pass", int64(pass))
		res = Result{Policy: p, NCores: s.cfg.NCores}
		st.reset()
		var wSum float64
		for e := 0; e < s.cfg.Epochs; e++ {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			_, es := s.env.Trace.Start(passCtx, "sched.epoch")
			es.AnnotateInt("epoch", int64(e))
			r := e % len(s.epochs)
			moved := s.assign(p, r, st, engine)
			res.Migrations += moved
			migrations.Add(int64(moved))
			epochsCtr.Inc()
			totalW, err := s.epoch(r, st, engine, sinkK, solvesCtr)
			if err != nil {
				return Result{}, err
			}
			dur := s.epochs[r]
			wSum += totalW * dur
			res.TimeSec += dur
			if mt := st.maxTemp(); mt > res.MaxTempK {
				res.MaxTempK = mt
			}
			if es.Enabled() {
				es.AnnotateInt("migrations", int64(moved))
				worst, wear := st.worstWear(engine)
				es.AnnotateInt("worst_core", int64(worst))
				es.AnnotateInt("worst_wear_fits_x1000", int64(wear*1000))
			}
			es.End()
		}
		res.AvgW = wSum / res.TimeSec
		sinkK = s.model.SinkSteadyTemp(res.AvgW)
		ps.End()
	}
	a, err := engine.Assess()
	if err != nil {
		return Result{}, err
	}
	res.Assessment = a
	res.LifetimeYears = a.MinCoreMTTFYears
	res.ChipFIT = a.ChipFIT
	res.ChipMTTFYears = a.ChipMTTFYears
	res.BIPS = s.retired / res.TimeSec / 1e9
	res.CoreWear = make([]float64, s.cfg.NCores)
	for k := range res.CoreWear {
		res.CoreWear[k] = engine.CoreWear(k)
	}
	if s.env.Metrics != nil {
		s.env.Metrics.Gauge("sched_worst_core").Set(int64(a.WorstCore))
	}
	return res, nil
}

// runState is one run's mutable scheduling state and scratch, reset at
// the start of every pass.
type runState struct {
	assigned  []int              // group -> core, -1 before the first epoch
	next      []int              // group -> core, this epoch
	coreOf    []int              // core -> group, -1 if idle
	cores     []int              // core indices in policy rank order
	rank      []float64          // core -> rank key (last max temp or wear)
	acts      []*power.Vector    // core -> activity this epoch
	temps     []float64          // flat per-block temperatures, then the spreader, last solve
	prevTemps []float64          // previous fixed-point iterate (convergence test)
	pw        []float64          // flat per-block power scratch
	prevMax   []float64          // per-core max temp, last epoch
	obs       []core.Observation // per-core RAMP observation, last solve
	ones      power.Vector
	zero      power.Vector
	memo      memo
}

func newRunState(s *Simulator) *runState {
	n := s.cfg.NCores
	return &runState{
		assigned:  make([]int, len(s.groups)),
		next:      make([]int, len(s.groups)),
		coreOf:    make([]int, n),
		cores:     make([]int, n),
		rank:      make([]float64, n),
		acts:      make([]*power.Vector, n),
		temps:     make([]float64, s.model.Nodes()-1),
		prevTemps: make([]float64, s.die.NumBlocks()),
		pw:        make([]float64, s.die.NumBlocks()),
		prevMax:   make([]float64, n),
		obs:       make([]core.Observation, n),
		ones:      power.Ones(),
		memo:      memo{slots: make(map[string]int)},
	}
}

// reset returns the state to the start of a pass: no group placed, no
// core temperature measured yet and nothing memoized, since the sink
// temperature has changed.
func (st *runState) reset() {
	for k := range st.assigned {
		st.assigned[k] = -1
	}
	clear(st.prevMax)
	st.memo.reset()
}

// assign maps groups to cores for an epoch of demand row r under policy
// p and returns the number of groups that moved. Every ordering ties
// deterministically (group index, then core index).
func (s *Simulator) assign(p Policy, r int, st *runState, engine *core.DieEngine) int {
	for c := range st.coreOf {
		st.coreOf[c] = -1
	}
	next := st.next
	switch p {
	case Static:
		for k := range next {
			next[k] = k
		}
	case Coolest, WearLevel:
		// The hottest group goes to the coolest / least-worn core.
		for c := range st.cores {
			st.cores[c] = c
			if p == Coolest {
				st.rank[c] = st.prevMax[c]
			} else {
				st.rank[c] = engine.CoreWear(c)
			}
		}
		rank := st.rank
		slices.SortStableFunc(st.cores, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
		for i, grp := range s.hotFirst[r] {
			next[grp] = st.cores[i]
		}
	}
	moved := 0
	for k, c := range next {
		if st.assigned[k] >= 0 && st.assigned[k] != c {
			moved++
		}
		st.assigned[k] = c
		st.coreOf[c] = k
	}
	return moved
}

// epoch advances the die by one epoch of demand row r under the
// assignment in st.coreOf: it folds every core's observation into its
// wear accumulator, leaves each core's max temperature in st.prevMax,
// and returns the total chip power. Within a pass the outcome depends
// only on r and the assignment (the sink is fixed and the fixed point
// starts from it), so a repeated pair is replayed from the memo instead
// of solved.
func (s *Simulator) epoch(r int, st *runState, engine *core.DieEngine, sinkK float64, solves *obs.Counter) (float64, error) {
	slot, seen := st.memo.find(r, st.coreOf)
	if slot >= 0 {
		n := len(st.prevMax)
		copy(st.prevMax, st.memo.maxT[slot*n:])
		for c := range n {
			engine.FoldCore(c, &st.memo.obs[slot*n+c])
		}
		return st.memo.totalW[slot], nil
	}
	solves.Inc()
	totalW, err := s.solve(r, st, engine, sinkK)
	if err != nil {
		return 0, err
	}
	st.memo.note(seen, totalW, st.prevMax, st.obs)
	return totalW, nil
}

// solve runs the leakage-temperature fixed point for one epoch of
// demand row r on the tiled die, records and folds every core's RAMP
// observation (kept in st.obs), sets st.prevMax and returns the
// converged total chip power.
func (s *Simulator) solve(r int, st *runState, engine *core.DieEngine, sinkK float64) (float64, error) {
	for c, grp := range st.coreOf {
		st.acts[c] = &st.zero
		if grp >= 0 {
			st.acts[c] = &s.demand[r][grp].act
		}
	}
	vdd, f := s.env.Base.VddV, s.env.Base.FreqHz
	s.env.DieFixedPoint(s.model, st.acts, &st.ones, vdd, f, sinkK, st.temps, st.prevTemps, st.pw)
	var totalW float64
	for _, w := range st.pw {
		totalW += w
	}
	ns := int(floorplan.NumStructures)
	iv := core.Interval{DurationSec: s.epochs[r]}
	for c, act := range st.acts {
		st.prevMax[c] = s.model.MaxCoreTemp(st.temps, c)
		lo := c * ns
		for i := 0; i < ns; i++ {
			iv.Structures[i] = core.Conditions{
				TempK:      st.temps[lo+i],
				VddV:       vdd,
				FreqHz:     f,
				Activity:   act[i],
				OnFraction: 1,
			}
		}
		o, err := engine.RecordCore(c, iv)
		if err != nil {
			return 0, err
		}
		st.obs[c] = o
		engine.FoldCore(c, &st.obs[c])
	}
	return totalW, nil
}

// memo holds one sink pass's solved epochs, keyed by (demand row,
// core→group assignment). An outcome is stored the second time its key
// is seen and replayed from then on, so a key seen only once costs just
// the key: eight-core wear-leveling never repeats a pair in 400 epochs,
// and storing every outcome would hold 400 unused ones.
type memo struct {
	key    []byte             // the current key, reused
	slots  map[string]int     // key -> outcome slot, or -1 once seen
	totalW []float64          // slot -> total chip power
	maxT   []float64          // slot·N + core -> the core's max temperature
	obs    []core.Observation // slot·N + core -> the core's observation
}

// reset forgets every key and outcome, keeping the storage.
func (m *memo) reset() {
	clear(m.slots)
	m.totalW = m.totalW[:0]
	m.maxT = m.maxT[:0]
	m.obs = m.obs[:0]
}

// find encodes the key of demand row r under assignment coreOf and
// returns its outcome slot (-1 if none is stored) and whether the key
// was seen before in this pass.
func (m *memo) find(r int, coreOf []int) (slot int, seen bool) {
	m.key = binary.AppendUvarint(m.key[:0], uint64(r))
	for _, g := range coreOf {
		m.key = binary.AppendUvarint(m.key, uint64(g+1))
	}
	slot, seen = m.slots[string(m.key)]
	if !seen {
		slot = -1
	}
	return slot, seen
}

// note records the outcome just solved for the key of the last find:
// on its first sighting only the key, on its second the outcome too.
func (m *memo) note(seen bool, totalW float64, maxT []float64, coreObs []core.Observation) {
	if !seen {
		m.slots[string(m.key)] = -1
		return
	}
	m.slots[string(m.key)] = len(m.totalW)
	m.totalW = append(m.totalW, totalW)
	m.maxT = append(m.maxT, maxT...)
	m.obs = append(m.obs, coreObs...)
}

func (st *runState) maxTemp() float64 {
	var m float64
	for _, t := range st.prevMax {
		if t > m {
			m = t
		}
	}
	return m
}

func (st *runState) worstWear(engine *core.DieEngine) (idx int, wear float64) {
	for c := 0; c < len(st.prevMax); c++ {
		if w := engine.CoreWear(c); w > wear {
			wear, idx = w, c
		}
	}
	return idx, wear
}

// SingleCoreDRM returns the paper's single-core baseline for the
// same suite: the workload FIT value (Section 3.6 time-weighted average
// over the nine applications on the base processor) and its MTTF in
// years.
func SingleCoreDRM(ctx context.Context, env *exp.Env, tqualK float64) (fitValue, mttfYears float64, err error) {
	suite, err := env.EvaluateSuiteCtx(ctx, env.Qualification(tqualK))
	if err != nil {
		return 0, 0, err
	}
	comps := make([]core.WorkloadComponent, len(suite))
	for i, r := range suite {
		var t float64
		for e := range r.Epochs {
			t += r.Epochs[e].Sim.TimeSec
		}
		comps[i] = core.WorkloadComponent{Name: r.App, Weight: t, FIT: r.FIT()}
	}
	fit, err := core.WorkloadFIT(comps)
	if err != nil {
		return 0, 0, err
	}
	return fit, core.WorkloadMTTFYears(fit), nil
}
