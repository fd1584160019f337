// Reactive DRM control.
//
// The paper evaluates DRM with a once-per-application oracle (Section 5)
// and names real adaptive control algorithms as future work. This file
// implements that next step: an interval-based feedback controller that
// watches RAMP's FIT estimate online and steps the DVS operating point
// up or down, with no advance knowledge of the application.
//
// Two policies capture the paper's key observation that "like energy,
// but unlike temperature, reliability is a long-term phenomenon and can
// be budgeted over time" (Section 4):
//
//   - Instantaneous: every interval's FIT must respect the target on its
//     own. Simple, but over-conservative — a hot phase forces a slowdown
//     even when the surrounding phases have banked plenty of margin.
//   - Banked: the controller regulates the *cumulative time-averaged*
//     FIT, which is what RAMP actually qualifies (Section 3.6). Cool
//     phases bank failure-rate budget that hot phases may spend.
package drm

import (
	"fmt"

	"ramp/internal/check"
	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/sim"
	"ramp/internal/trace"
)

// ControlPolicy selects how the reactive controller interprets the FIT
// target.
type ControlPolicy int

// Reactive control policies.
const (
	// Instantaneous keeps every interval's own FIT at or below target.
	Instantaneous ControlPolicy = iota
	// Banked keeps the cumulative time-averaged FIT at or below target,
	// letting cool intervals bank budget for hot ones.
	Banked
)

// String returns the policy name.
func (p ControlPolicy) String() string {
	switch p {
	case Instantaneous:
		return "Instantaneous"
	case Banked:
		return "Banked"
	default:
		return fmt.Sprintf("ControlPolicy(%d)", int(p))
	}
}

// Controller is a reactive, interval-based DRM controller: it runs an
// application epoch by epoch, measures each epoch's reliability impact
// with RAMP, and nudges the DVS operating point to hold the FIT target.
type Controller struct {
	Env    *exp.Env
	Qual   core.Qualification
	Policy ControlPolicy

	// StepHz is the frequency increment per control action.
	StepHz float64
	// Headroom is the fraction of the target below which the controller
	// speeds up (hysteresis band: speed up under Headroom*target, slow
	// down above target).
	Headroom float64

	// scratch is the engine intervalFIT resets and reuses every epoch;
	// its budget depends only on Qual, which is fixed per controller. A
	// Controller is not safe for concurrent Run calls (Run itself is a
	// single stateful control loop), so one scratch engine suffices.
	scratch *core.Engine
}

// NewController returns a reactive controller with sensible defaults.
func NewController(env *exp.Env, qual core.Qualification, policy ControlPolicy) *Controller {
	return &Controller{
		Env:      env,
		Qual:     qual,
		Policy:   policy,
		StepHz:   config.DefaultFreqStepHz,
		Headroom: 0.90,
	}
}

// ControlTrace records one controlled run.
type ControlTrace struct {
	Policy ControlPolicy

	// Per-epoch records.
	FreqGHz  []float64
	EpochFIT []float64 // instantaneous FIT of each epoch
	CumFIT   []float64 // cumulative time-averaged FIT after each epoch

	// Aggregates.
	FinalFIT  float64 // cumulative FIT of the whole run
	BIPS      float64
	MeanGHz   float64
	Retired   uint64
	TimeSec   float64
	Converged bool // FinalFIT <= target
}

// Run executes app for the given number of epochs under reactive
// control, starting at the base operating point.
func (c *Controller) Run(app trace.Profile, epochs int) (ControlTrace, error) {
	if epochs <= 0 {
		return ControlTrace{}, fmt.Errorf("drm: non-positive epoch count %d", epochs)
	}
	if c.StepHz <= 0 {
		return ControlTrace{}, fmt.Errorf("drm: non-positive control step")
	}
	env := c.Env
	gen, err := trace.NewGenerator(app, env.Opts.Seed)
	if err != nil {
		return ControlTrace{}, err
	}
	proc := env.Base
	cpu, err := sim.New(proc, gen)
	if err != nil {
		return ControlTrace{}, err
	}
	if env.Opts.WarmupInstrs > 0 {
		cpu.Run(env.Opts.WarmupInstrs)
	}
	engine, err := core.NewEngine(env.FP, env.Params, c.Qual)
	if err != nil {
		return ControlTrace{}, err
	}

	on := power.Ones() // reactive control here scales V/f only
	tr := ControlTrace{
		Policy:   c.Policy,
		FreqGHz:  make([]float64, 0, epochs),
		EpochFIT: make([]float64, 0, epochs),
		CumFIT:   make([]float64, 0, epochs),
	}
	freq := proc.FreqHz
	sinkK := env.Tech.AmbientK + 25 // adapts from the running power average
	var wSum, tSum float64
	var freqTimeSum float64

	for i := 0; i < epochs; i++ {
		proc = proc.WithOperatingPoint(freq)
		// The controller must never command an operating point outside
		// the paper's DVS window (Section 6.1).
		check.InRange("drm.Controller.Run.freq", proc.FreqHz, config.MinFreqHz, config.MaxFreqHz)
		check.InRange("drm.Controller.Run.vdd", proc.VddV, config.VMin, config.VMax)
		cpu.SetOperatingPoint(proc.FreqHz, proc.VddV)
		r := cpu.Run(env.Opts.EpochInstrs)

		temps, pw := env.EpochConditions(r.Activity, on, proc, sinkK)
		// The sink follows the running average power (its time constant
		// spans many epochs).
		wSum += pw.Sum() * r.TimeSec
		tSum += r.TimeSec
		sinkK = env.Thermal.SinkSteadyTemp(wSum / tSum)

		iv := core.Interval{DurationSec: r.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      temps[s],
				VddV:       proc.VddV,
				FreqHz:     proc.FreqHz,
				Activity:   r.Activity[s],
				OnFraction: 1,
			}
		}
		// One evaluation of the rate models feeds both the epoch's own
		// FIT and the run's cumulative engine.
		o, err := engine.Record(iv)
		if err != nil {
			return ControlTrace{}, err
		}
		epochFIT, err := c.intervalFIT(&o)
		if err != nil {
			return ControlTrace{}, err
		}
		engine.Fold(&o)
		cum, err := engine.Assess()
		if err != nil {
			return ControlTrace{}, err
		}

		tr.FreqGHz = append(tr.FreqGHz, freq/1e9)
		tr.EpochFIT = append(tr.EpochFIT, epochFIT)
		tr.CumFIT = append(tr.CumFIT, cum.TotalFIT)
		tr.Retired += r.Retired
		tr.TimeSec += r.TimeSec
		freqTimeSum += freq * r.TimeSec

		// Control action for the next epoch.
		target := c.Qual.TargetFIT
		switch c.Policy {
		case Instantaneous:
			switch {
			case epochFIT > target:
				freq -= c.StepHz
			case epochFIT < c.Headroom*target:
				freq += c.StepHz
			}
		default: // Banked
			// Regulate the cumulative average inside a safety band: slow
			// down before the average actually reaches the target (the
			// cumulative signal reacts slowly), and only spend banked
			// budget while the current phase is not drastically over it.
			downAt := target * (1 + c.Headroom) / 2
			upAt := target * c.Headroom * c.Headroom
			switch {
			case cum.TotalFIT > downAt:
				freq -= c.StepHz
			case cum.TotalFIT < upAt && epochFIT < target/c.Headroom:
				freq += c.StepHz
			}
		}
		if freq < config.MinFreqHz {
			freq = config.MinFreqHz
		}
		if freq > config.MaxFreqHz {
			freq = config.MaxFreqHz
		}
	}

	final, err := engine.Assess()
	if err != nil {
		return ControlTrace{}, err
	}
	tr.FinalFIT = final.TotalFIT
	tr.BIPS = float64(tr.Retired) / tr.TimeSec / 1e9
	tr.MeanGHz = freqTimeSum / tr.TimeSec / 1e9
	tr.Converged = final.TotalFIT <= c.Qual.TargetFIT
	return tr, nil
}

// intervalFIT computes the FIT value one recorded interval would have
// if sustained forever (the instantaneous control signal). The scratch
// engine is built once and reset per call, so the per-epoch control
// path allocates nothing here.
func (c *Controller) intervalFIT(o *core.Observation) (float64, error) {
	e := c.scratch
	if e == nil {
		var err error
		e, err = core.NewEngine(c.Env.FP, c.Env.Params, c.Qual)
		if err != nil {
			return 0, err
		}
		c.scratch = e
	} else {
		e.Reset()
	}
	e.Fold(o)
	a, err := e.Assess()
	if err != nil {
		return 0, err
	}
	return a.TotalFIT, nil
}
