package exp

import (
	"ramp/internal/core"
	"ramp/internal/obs"
)

// Metric names an instrumented Env registers. Units ride in the names:
// _total counters are event counts, _us histograms are microseconds,
// and the core_fit_compute_ns_* counters resolved by core.NewFITTimers
// are nanoseconds.
const (
	MetricEvaluations    = "exp_evaluations_total"      // uncached pipeline runs
	MetricEpochs         = "exp_epochs_simulated_total" // simulated measurement epochs
	MetricFixedpointIter = "exp_fixedpoint_iters"       // leakage fixed-point iterations per DieFixedPoint call
	MetricEvaluateUS     = "exp_evaluate_us"            // wall time per uncached evaluation
	MetricCacheHits      = "exp_evalcache_hits_total"   // evaluations served from cache
	MetricCacheMisses    = "exp_evalcache_misses_total" // evaluations that simulated
	MetricCacheEntries   = "exp_evalcache_entries"      // distinct cached points
	MetricSimRetired     = "sim_instructions_retired_total"
	MetricSimCycles      = "sim_cycles_total"
	MetricThermalSolves  = "thermal_solves_total" // quasi-steady solves, one per fixed-point iteration
)

// expInstruments holds the Env's pre-resolved instrument pointers so
// the per-epoch hot path never touches the registry. The zero value
// (all nil) is the uninstrumented state: every update is a nil-check
// no-op.
type expInstruments struct {
	evaluations   *obs.Counter
	epochs        *obs.Counter
	fpIters       *obs.Histogram
	evalUS        *obs.Histogram
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEntries  *obs.Gauge
	simRetired    *obs.Counter
	simCycles     *obs.Counter
	thermalSolves *obs.Counter
}

// Instrument attaches an observability runtime to the environment:
// spans from tr wrap every pipeline stage (evaluation, warmup, epoch,
// sink pass, fixed point, RAMP assessment) and the pipeline metrics
// register into reg. Either argument may be nil to enable only the
// other pillar. Call it once, after construction and before the first
// Evaluate — instrumentation must not race the concurrent evaluations
// the Env is otherwise safe for. It returns e for chaining.
//
// Instrumentation is observational only: it never changes evaluation
// results (the golden suite runs byte-identical with everything
// enabled, TestGoldenInstrumented).
func (e *Env) Instrument(tr *obs.Tracer, reg *obs.Registry) *Env {
	e.Trace = tr
	e.Metrics = reg
	e.obs = expInstruments{
		evaluations:   reg.Counter(MetricEvaluations),
		epochs:        reg.Counter(MetricEpochs),
		fpIters:       reg.Histogram(MetricFixedpointIter),
		evalUS:        reg.Histogram(MetricEvaluateUS),
		cacheHits:     reg.Counter(MetricCacheHits),
		cacheMisses:   reg.Counter(MetricCacheMisses),
		cacheEntries:  reg.Gauge(MetricCacheEntries),
		simRetired:    reg.Counter(MetricSimRetired),
		simCycles:     reg.Counter(MetricSimCycles),
		thermalSolves: reg.Counter(MetricThermalSolves),
	}
	e.fitTimers = core.NewFITTimers(reg)
	return e
}
