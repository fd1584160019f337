// Per-chip process variation.
//
// The paper's RAMP model (and our exp pipeline) computes the FIT of one
// nominal chip. Real fleets spread around that nominal: line-width and
// via geometry vary per die and per structure (shifting EM/SM/TDDB
// rates), and leakage varies chip-to-chip (a leaky chip runs hotter,
// which accelerates every thermally activated mechanism). We model both
// as multiplicative FIT-rate perturbations drawn per chip:
//
//   - a per-structure lognormal multiplier (geometry/local variation),
//     independent across structures within a chip, and
//   - one chip-level lognormal leakage factor L mapped onto each
//     mechanism as L^gamma_m — thermally driven mechanisms (TDDB
//     strongest, then EM, then SM) feel the leakage-induced temperature
//     shift; thermal cycling's package fatigue does not.
//
// Both lognormals are mean-one, so the fleet-average rate matches the
// nominal RAMP assessment and survival deltas come from spread, not
// from a hidden rate shift. A FIT multiplier k scales a component's
// failure rate by k, i.e. divides its Weibull scale by k.
package fleet

import (
	"fmt"

	"ramp/internal/core"
)

// VariationParams describes the per-chip process-variation model.
// The zero value disables variation (every multiplier is exactly 1).
type VariationParams struct {
	// StructSigma is the log-scale sigma of the per-structure FIT-rate
	// multiplier (geometry variation). 0 disables it.
	StructSigma float64
	// LeakSigma is the log-scale sigma of the chip-level leakage spread
	// factor L. 0 disables it.
	LeakSigma float64
	// LeakGamma maps L onto per-mechanism FIT multipliers as L^gamma.
	LeakGamma [core.NumMechanisms]float64
}

// DefaultVariation returns a moderate 65 nm-era spread: ~8% sigma on
// per-structure rates, ~12% sigma on chip leakage, with TDDB most
// sensitive to the leakage-induced temperature shift and thermal
// cycling insensitive to it.
func DefaultVariation() VariationParams {
	var g [core.NumMechanisms]float64
	g[core.EM] = 0.6
	g[core.SM] = 0.4
	g[core.TDDB] = 1.0
	g[core.TC] = 0
	return VariationParams{StructSigma: 0.08, LeakSigma: 0.12, LeakGamma: g}
}

// NoVariation returns parameters under which every chip is the nominal
// chip (all multipliers exactly 1) — the configuration the statistical
// test suite uses to compare samples against the closed-form
// LifetimeModel.Reliability curve.
func NoVariation() VariationParams { return VariationParams{} }

// Validate bounds the parameters to physically plausible spreads.
func (p VariationParams) Validate() error {
	if !(p.StructSigma >= 0 && p.StructSigma <= 1) {
		return fmt.Errorf("fleet: StructSigma %v outside [0, 1]", p.StructSigma)
	}
	if !(p.LeakSigma >= 0 && p.LeakSigma <= 1) {
		return fmt.Errorf("fleet: LeakSigma %v outside [0, 1]", p.LeakSigma)
	}
	for m, g := range p.LeakGamma {
		if !(g >= 0 && g <= 4) {
			return fmt.Errorf("fleet: LeakGamma[%v] = %v outside [0, 4]", core.Mechanism(m), g)
		}
	}
	return nil
}
