// Statistical verification of the sampling layer: the engine's
// inverse-CDF Weibull draws are compared against the closed-form
// moments and quantiles of the distributions they claim to sample, and
// the empirical fleet survival curve is KS-checked against the analytic
// core.LifetimeModel.Reliability series product. All tests run at
// pinned seeds with CLT-derived tolerances, so they are deterministic:
// a failure means the sampler is wrong, not that the dice were unlucky.
package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ramp/internal/core"
	"ramp/internal/floorplan"
)

// singleCell returns an assessment with exactly one active
// (structure, mechanism) component at the given FIT rate.
func singleCell(s floorplan.Structure, m core.Mechanism, fit float64) core.Assessment {
	var a core.Assessment
	a.FIT[s][m] = fit
	return a
}

// multiCell returns an assessment with a handful of active components
// spanning all four mechanisms — small enough to reason about, rich
// enough that the series-system minimum is non-trivial.
func multiCell() core.Assessment {
	var a core.Assessment
	a.FIT[floorplan.IntALU][core.EM] = 900
	a.FIT[floorplan.FPU][core.EM] = 400
	a.FIT[floorplan.IntRF][core.SM] = 600
	a.FIT[floorplan.L1D][core.TDDB] = 700
	a.FIT[floorplan.Window][core.TC] = 500
	return a
}

// runFleet builds and runs an engine over one policy.
func runFleet(t *testing.T, cfg Config, a core.Assessment) *Report {
	t.Helper()
	eng, err := New(cfg, []Policy{{Name: "base", Assessment: a}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestWeibullMomentsSingleCell pins the sampler to the analytic mean,
// standard deviation, and median of a single Weibull component. With
// one active cell and no process variation the chip lifetime IS one
// inverse-CDF Weibull draw, so the fleet statistics are direct sampler
// statistics.
func TestWeibullMomentsSingleCell(t *testing.T) {
	const (
		n   = 200_000
		fit = 3805.2 // => MTTF = 1e9/fit hours ~ 30 years
	)
	for _, m := range core.Mechanisms() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			shapes := core.DefaultShapes()
			beta := shapes[m]
			mttfH := 1e9 / fit
			eta := mttfH / math.Gamma(1+1/beta)

			meanY := eta * math.Gamma(1+1/beta) / HoursPerYear
			varY := eta * eta * (math.Gamma(1+2/beta) - math.Gamma(1+1/beta)*math.Gamma(1+1/beta)) /
				(HoursPerYear * HoursPerYear)
			sdY := math.Sqrt(varY)
			medianY := eta * math.Pow(math.Ln2, 1/beta) / HoursPerYear

			cfg := DefaultConfig(n, 7)
			cfg.Variation = VariationParams{} // every chip is the nominal chip
			cfg.HorizonYears = 120
			cfg.Bins = 2400 // 0.05-year resolution for the quantile check
			rep := runFleet(t, cfg, singleCell(floorplan.IntALU, m, fit))
			sr := &rep.Results[0]

			// Mean within 5 CLT standard errors of the analytic mean.
			seMean := sdY / math.Sqrt(n)
			if d := math.Abs(sr.MeanYears - meanY); d > 5*seMean {
				t.Errorf("mean = %.4f years, want %.4f ± %.4f", sr.MeanYears, meanY, 5*seMean)
			}
			// Standard deviation within 2% relative (generous vs the
			// ~sd/sqrt(2n) sampling error of the estimator).
			if d := math.Abs(sr.StdYears-sdY) / sdY; d > 0.02 {
				t.Errorf("std = %.4f years, want %.4f (rel err %.4f)", sr.StdYears, sdY, d)
			}
			// Survival at the analytic median is 1/2 within binomial
			// noise plus one bin of discretization.
			if s := sr.SurvivalAt(medianY); math.Abs(s-0.5) > 0.01 {
				t.Errorf("S(median %.2fy) = %.4f, want 0.5 ± 0.01", medianY, s)
			}
			// And the warranty-horizon fractions match the closed-form
			// CDF exactly (same tolerance).
			wantRet11 := 1 - math.Exp(-math.Pow(11*HoursPerYear/eta, beta))
			if d := math.Abs(sr.Return11 - wantRet11); d > 0.005 {
				t.Errorf("Return11 = %.5f, want %.5f", sr.Return11, wantRet11)
			}
		})
	}
}

// TestSurvivalMatchesReliability KS-checks the empirical survival curve
// of an unvaried fleet against the closed-form series-system
// core.LifetimeModel.Reliability at every bin edge.
func TestSurvivalMatchesReliability(t *testing.T) {
	const n = 100_000
	a := multiCell()
	lm, err := core.NewLifetimeModel(a, core.DefaultShapes())
	if err != nil {
		t.Fatalf("NewLifetimeModel: %v", err)
	}

	cfg := DefaultConfig(n, 11)
	cfg.Variation = VariationParams{} // every chip is the nominal chip
	cfg.HorizonYears = 60
	cfg.Bins = 600
	rep := runFleet(t, cfg, a)
	sr := &rep.Results[0]

	// KS statistic over the binned curve. 2.5/sqrt(n) is past the 99.9%
	// KS quantile (1.95/sqrt(n)); at pinned seed the observed D is far
	// below even that, so this guards real sampler bugs, not noise.
	maxD, maxAt := 0.0, 0.0
	for k, ty := range sr.SurvivalYears {
		want := lm.Reliability(ty * HoursPerYear)
		if d := math.Abs(sr.Survival[k] - want); d > maxD {
			maxD, maxAt = d, ty
		}
	}
	if limit := 2.5 / math.Sqrt(n); maxD > limit {
		t.Errorf("KS distance %.5f at %.1f years exceeds %.5f", maxD, maxAt, limit)
	}
}

// TestMeanOneVariationPreservesRate checks that process variation does
// not smuggle in a fleet-wide rate shift: the mean-one multipliers must
// leave the average failure rate near nominal, so the fleet mean
// lifetime moves only modestly (Jensen effects on the minimum) while
// the spread widens.
func TestMeanOneVariationPreservesRate(t *testing.T) {
	const n = 100_000
	a := multiCell()

	cfg := DefaultConfig(n, 3)
	cfg.Variation = VariationParams{} // every chip is the nominal chip
	plain := runFleet(t, cfg, a).Results[0]

	cfg.Variation = DefaultVariation()
	varied := runFleet(t, cfg, a).Results[0]

	if d := math.Abs(varied.MeanYears-plain.MeanYears) / plain.MeanYears; d > 0.05 {
		t.Errorf("variation shifted mean lifetime by %.1f%% (plain %.2f, varied %.2f)",
			100*d, plain.MeanYears, varied.MeanYears)
	}
	if varied.StdYears <= plain.StdYears {
		t.Errorf("variation did not widen spread: std %.3f -> %.3f", plain.StdYears, varied.StdYears)
	}
}

// TestWorkerCountInvariance is the determinism contract: the same
// configuration produces bitwise-identical reports at 1 and 8 workers,
// with variation, repair, and checkpointing all in play.
func TestWorkerCountInvariance(t *testing.T) {
	a := multiCell()
	base := DefaultConfig(50_000, 42)
	base.ShardSize = 1024 // many shards so scheduling actually varies
	base.Scenarios = []Scenario{
		NominalScenario(),
		{Name: "checkpoint", Duty: 0.8},
		{Name: "repair", Duty: 1, Spares: 2},
	}

	cfg1 := base
	cfg1.Workers = 1
	rep1 := runFleet(t, cfg1, a)

	cfg8 := base
	cfg8.Workers = 8
	rep8 := runFleet(t, cfg8, a)

	if !reflect.DeepEqual(rep1, rep8) {
		t.Fatalf("reports differ between 1 and 8 workers")
	}
}
