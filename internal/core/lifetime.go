// Time-dependent failure models.
//
// The SOFR model (Section 3.5) assumes every failure mechanism has a
// constant failure rate, which the paper itself calls "clearly
// inaccurate — a typical wear-out failure mechanism will have a low
// failure rate at the beginning of the component's lifetime and the
// value will grow as the component ages", and lists incorporating time
// dependence as future work (Section 8). This file implements that
// extension: each (structure, mechanism) component gets a Weibull
// lifetime distribution whose *mean* matches the MTTF implied by its
// RAMP FIT value, with a mechanism-specific shape parameter beta > 1
// expressing the increasing hazard of wear-out. The processor remains a
// series failure system: it fails at the first component failure, so
// its survival function is the product of component survivals.
//
// The paper's footnote 1 motivates why this matters: qualification
// targets a ~30-year MTTF so that the consumer service life (~11 years)
// falls "far out in the tails of the lifetime distribution curve".
// TimeToFailureFraction quantifies exactly that tail.
package core

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/floorplan"
)

// WeibullShapes holds the per-mechanism Weibull shape parameters
// (beta). beta = 1 reduces to the SOFR exponential; beta > 1 models
// wear-out (increasing hazard).
type WeibullShapes [NumMechanisms]float64

// DefaultShapes returns representative wear-out shape parameters from
// the reliability-physics literature: electromigration and stress
// migration are strongly wear-out dominated, TDDB of ultra-thin oxides
// has a shallower (but still increasing) hazard, and solder-fatigue
// thermal cycling is sharply wear-out.
func DefaultShapes() WeibullShapes {
	var s WeibullShapes
	s[EM] = 2.0
	s[SM] = 2.2
	s[TDDB] = 1.5
	s[TC] = 2.5
	return s
}

// weibullComponent is one (structure, mechanism) lifetime distribution.
type weibullComponent struct {
	structure floorplan.Structure
	mechanism Mechanism
	shape     float64 // beta
	scale     float64 // eta, hours
}

// LifetimeModel is a series system of Weibull components.
type LifetimeModel struct {
	comps []weibullComponent

	// Every component of a mechanism shares its shape β_m, so the series
	// hazard Σ_c (t/η_c)^β_m regroups as Σ_m t^β_m · rate[m], with
	// rate[m] = Σ_{c∈m} η_c^−β_m summed once at construction.
	shapes WeibullShapes
	rate   [NumMechanisms]float64
}

// NewLifetimeModel builds a time-dependent lifetime model from a RAMP
// assessment: each component's Weibull scale is chosen so its mean
// lifetime equals the MTTF implied by its FIT value
// (mean = eta * Gamma(1 + 1/beta)).
func NewLifetimeModel(a Assessment, shapes WeibullShapes) (*LifetimeModel, error) {
	for m, b := range shapes {
		if b <= 0 {
			return nil, fmt.Errorf("core: non-positive Weibull shape for %v", Mechanism(m))
		}
	}
	lm := &LifetimeModel{shapes: shapes}
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		for _, m := range Mechanisms() {
			fit := a.FIT[s][m]
			if fit <= 0 {
				continue // mechanism inactive for this structure
			}
			mttfHours := 1e9 / fit
			beta := shapes[m]
			eta := mttfHours / math.Gamma(1+1/beta)
			lm.comps = append(lm.comps, weibullComponent{
				structure: s, mechanism: m, shape: beta, scale: eta,
			})
			lm.rate[m] += math.Pow(eta, -beta)
		}
	}
	if len(lm.comps) == 0 {
		return nil, fmt.Errorf("core: assessment has no active failure components")
	}
	return lm, nil
}

// Components returns the number of active failure components.
func (lm *LifetimeModel) Components() int { return len(lm.comps) }

// Component returns the i-th active component's identity and Weibull
// parameters (shape beta, scale eta in hours). The fleet Monte Carlo
// engine compiles the model into flat per-cell arrays through this
// accessor, so its samples are drawn from exactly the distributions
// Reliability integrates.
func (lm *LifetimeModel) Component(i int) (s floorplan.Structure, m Mechanism, shape, scaleHours float64) {
	c := lm.comps[i]
	return c.structure, c.mechanism, c.shape, c.scale
}

// Reliability returns the probability the processor survives past t
// hours: the product of component Weibull survivals (series system).
func (lm *LifetimeModel) Reliability(tHours float64) float64 {
	if tHours <= 0 {
		return 1
	}
	// Sum hazards in log space for numerical robustness.
	r := math.Exp(-lm.cumHazard(tHours))
	check.Probability("core.LifetimeModel.Reliability", r)
	return r
}

// cumHazard returns the series system's cumulative hazard at t > 0
// hours, the sum of the component Weibull hazards: R(t) = exp(−H(t)).
// It takes one power per active mechanism, not one per component.
func (lm *LifetimeModel) cumHazard(tHours float64) float64 {
	var cum float64
	for m, r := range lm.rate {
		if r != 0 {
			cum += math.Pow(tHours, lm.shapes[m]) * r
		}
	}
	return cum
}

// MTTFHours integrates the survival function to get the mean lifetime.
func (lm *LifetimeModel) MTTFHours() float64 {
	// The series-minimum lifetime is bounded by the shortest component
	// scale; integrate R(t) with a trapezoid over an adaptive horizon.
	horizon := 0.0
	for _, c := range lm.comps {
		if c.scale > horizon {
			horizon = c.scale
		}
	}
	horizon *= 3
	const steps = 20000
	dt := horizon / steps
	sum := 0.5 // R(0) = 1, half weight
	prev := 1.0
	for i := 1; i < steps; i++ {
		r := lm.Reliability(float64(i) * dt)
		// A survival function cannot recover: R(t) is non-increasing.
		check.Assert(r <= prev, "core.LifetimeModel.MTTFHours", "reliability increased over time")
		prev = r
		sum += r
	}
	sum += 0.5 * lm.Reliability(horizon)
	mttf := sum * dt
	check.NonNegative("core.LifetimeModel.MTTFHours", mttf)
	return mttf
}

// MTTFYears is MTTFHours in years.
func (lm *LifetimeModel) MTTFYears() float64 { return lm.MTTFHours() / 8760 }

// TimeToFailureFraction returns the time (hours) by which a fraction p
// of parts has failed (the p-quantile of the lifetime distribution) via
// bisection on the survival function.
func (lm *LifetimeModel) TimeToFailureFraction(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("core: failure fraction %v out of (0,1)", p)
	}
	target := 1 - p
	lo, hi := 0.0, 1.0
	for lm.Reliability(hi) > target {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("core: quantile search diverged")
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-6*hi; i++ {
		mid := (lo + hi) / 2
		if lm.Reliability(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// WeakestComponent returns the component with the smallest scale (the
// expected first failure site).
func (lm *LifetimeModel) WeakestComponent() (floorplan.Structure, Mechanism) {
	best := lm.comps[0]
	for _, c := range lm.comps[1:] {
		if c.scale < best.scale {
			best = c
		}
	}
	return best.structure, best.mechanism
}
