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

// temps returns each structure's temperature.
func (iv *Interval) temps() [floorplan.NumStructures]float64 {
	var t [floorplan.NumStructures]float64
	for s := range iv.Structures {
		t[s] = iv.Structures[s].TempK
	}
	return t
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

// Observation is one interval as the engine folds it: its duration,
// each structure's temperature, and each structure's EM, SM and TDDB
// failure rates. Record evaluates it and Fold adds it to the running
// averages; folding the same observation twice is the same as
// observing its interval twice.
type Observation struct {
	durationSec float64
	tempK       [floorplan.NumStructures]float64
	rates       intervalRates
}

// Observe folds one interval into the running averages: Record, then
// Fold. It rejects a non-positive duration or temperature.
//
//ramp:hot
func (e *Engine) Observe(iv Interval) error {
	o, err := e.Record(iv)
	if err != nil {
		return err
	}
	e.Fold(&o)
	return nil
}

// Record validates one interval and evaluates its rate models with the
// engine's timers, without folding it. It rejects a non-positive
// duration or temperature.
//
//ramp:hot
func (e *Engine) Record(iv Interval) (Observation, error) {
	o := Observation{durationSec: iv.DurationSec, tempK: iv.temps()}
	if err := e.params.rates(&iv, e.timers, &o.rates); err != nil {
		return Observation{}, err
	}
	return o, nil
}

// Fold adds one recorded observation to the time-weighted FIT sums and
// the temperature sums. It evaluates no rate model.
//
//ramp:hot
func (e *Engine) Fold(o *Observation) {
	e.budget.fold(&e.fitSum, o.durationSec, &o.rates)
	e.sums.add(o.durationSec, &o.tempK)
	e.n++
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
