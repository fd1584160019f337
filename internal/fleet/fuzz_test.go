package fleet

import (
	"math"
	"testing"

	"ramp/internal/core"
)

// FuzzVariationSampler drives the process-variation sampler across the
// whole accepted parameter space: every multiplier the dense reference
// draws must be finite and strictly positive (a zero or NaN multiplier
// would poison the inverse-CDF transform), Run's report must equal the
// dense reference's bit for bit under checkpoint and repair scenarios,
// and the fleet survival curve must stay a monotone probability.
func FuzzVariationSampler(f *testing.F) {
	f.Add(uint64(1), 0.08, 0.12, 0.6, 0.4, 1.0, 0.0)
	f.Add(uint64(99), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(7), 1.0, 1.0, 4.0, 4.0, 4.0, 4.0)
	f.Add(uint64(0), 0.5, 0.01, 2.0, 0.1, 3.3, 0.7)
	f.Fuzz(func(t *testing.T, seed uint64, ss, ls, g0, g1, g2, g3 float64) {
		p := VariationParams{StructSigma: ss, LeakSigma: ls}
		p.LeakGamma[core.EM] = g0
		p.LeakGamma[core.SM] = g1
		p.LeakGamma[core.TDDB] = g2
		p.LeakGamma[core.TC] = g3
		if p.Validate() != nil {
			t.Skip()
		}

		var k [numCells]float64
		for chip := uint64(0); chip < 64; chip++ {
			r := chipStream(seed, saltVariation, chip)
			sampleVariation(&r, p, &k)
			for c, v := range k {
				if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("chip %d cell %d: multiplier %v not finite positive", chip, c, v)
				}
			}
		}

		cfg := DefaultConfig(1_000, seed)
		cfg.Variation = p
		cfg.Scenarios = []Scenario{
			NominalScenario(),
			{Name: "checkpoint", Duty: 0.8},
			{Name: "repair", Duty: 1, Spares: 2},
		}
		eng, err := New(cfg, []Policy{{Name: "base", Assessment: multiCell()}, {Name: "full", Assessment: fullGrid()}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep := checkAgainstDense(t, eng)
		for _, sr := range rep.Results {
			prev := 1.0
			for b, s := range sr.Survival {
				if s < 0 || s > prev {
					t.Fatalf("survival not monotone in [0,1] at bin %d: %v (prev %v)", b, s, prev)
				}
				prev = s
			}
		}
	})
}
