package core

import (
	"fmt"

	"ramp/internal/floorplan"
)

// Interval is one observation the engine folds into the application's
// FIT value: a duration (used only as an averaging weight) and each
// structure's operating conditions during it.
type Interval struct {
	DurationSec float64
	Structures  [floorplan.NumStructures]Conditions
}

// Engine computes application-level FIT values (Section 3.6) from a
// stream of intervals: it folds each interval's instantaneous
// per-structure, per-mechanism FIT into time-weighted sums as it
// arrives, so the assessment of everything observed so far is available
// at any point; thermal cycling instead uses the run-average
// temperature, so it is evaluated at Assess. It shares its per-interval
// rate evaluation and FIT fold with Exposure and Budget.Assess, which
// handle a complete run.
//
// An Engine is the simulation-side realisation of RAMP; in hardware the
// same computation would be driven by temperature sensors and activity
// counters (Section 3).
type Engine struct {
	params Params
	budget Budget
	timers *FITTimers // per-mechanism timing, nil = untimed

	fitSum intervalRates // time-weighted FIT
	sums   tempSums
	n      int
}

// NewEngine builds an engine for a floorplan, parameter set and
// qualification point.
func NewEngine(fp *floorplan.Floorplan, p Params, q Qualification) (*Engine, error) {
	b, err := NewBudget(fp, p, q)
	if err != nil {
		return nil, err
	}
	return &Engine{params: p, budget: b}, nil
}

// MustNewEngine is NewEngine, panicking on invalid inputs.
func MustNewEngine(fp *floorplan.Floorplan, p Params, q Qualification) *Engine {
	e, err := NewEngine(fp, p, q)
	if err != nil {
		panic(err)
	}
	return e
}

// Budget exposes the engine's qualification budget.
func (e *Engine) Budget() *Budget { return &e.budget }

// Params exposes the engine's device-model constants.
func (e *Engine) Params() Params { return e.params }

// Observe folds one interval into the running averages. It rejects a
// non-positive duration or temperature.
//
//ramp:hot
func (e *Engine) Observe(iv Interval) error {
	var r intervalRates
	if err := e.params.rates(&iv, e.timers, &r); err != nil {
		return err
	}
	e.budget.fold(&e.fitSum, iv.DurationSec, &r)
	e.sums.add(&iv)
	e.n++
	return nil
}

// Reset clears all accumulated observations (timers stay attached).
func (e *Engine) Reset() {
	*e = Engine{params: e.params, budget: e.budget, timers: e.timers}
}

// Assessment is the engine's verdict for the observed run.
type Assessment struct {
	// FIT by structure and mechanism (time-averaged; TC from the
	// run-average temperature).
	FIT [floorplan.NumStructures][NumMechanisms]float64

	TotalFIT  float64
	MTTFHours float64
	MTTFYears float64

	AvgTempK [floorplan.NumStructures]float64
	MaxTempK float64

	Intervals int
	TimeSec   float64
}

// ByMechanism sums the assessment's FIT per mechanism.
func (a Assessment) ByMechanism() [NumMechanisms]float64 {
	var out [NumMechanisms]float64
	for s := 0; s < int(floorplan.NumStructures); s++ {
		for m := 0; m < int(NumMechanisms); m++ {
			out[m] += a.FIT[s][m]
		}
	}
	return out
}

// ByStructure sums the assessment's FIT per structure.
func (a Assessment) ByStructure() [floorplan.NumStructures]float64 {
	var out [floorplan.NumStructures]float64
	for s := 0; s < int(floorplan.NumStructures); s++ {
		for m := 0; m < int(NumMechanisms); m++ {
			out[s] += a.FIT[s][m]
		}
	}
	return out
}

// Assess computes the application FIT value from everything observed so
// far. It returns an error if nothing was observed.
func (e *Engine) Assess() (Assessment, error) {
	if e.sums.timeSec <= 0 {
		return Assessment{}, fmt.Errorf("core: nothing observed")
	}
	avgTempK, tcRate := e.sums.averages(e.params, e.timers)
	return e.budget.assessment(&e.fitSum, &avgTempK, &tcRate, e.sums.maxTempK, e.sums.timeSec, e.n), nil
}

// MustAssess is Assess, panicking if nothing was observed.
func (e *Engine) MustAssess() Assessment {
	a, err := e.Assess()
	if err != nil {
		panic(err)
	}
	return a
}

// ConstantConditionsFIT is a convenience for steady-state analysis: the
// total FIT if every structure ran forever at the given conditions.
func ConstantConditionsFIT(fp *floorplan.Floorplan, p Params, q Qualification, c Conditions) (float64, error) {
	e, err := NewEngine(fp, p, q)
	if err != nil {
		return 0, err
	}
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = c
	}
	if err := e.Observe(iv); err != nil {
		return 0, err
	}
	a, err := e.Assess()
	if err != nil {
		return 0, err
	}
	return a.TotalFIT, nil
}
