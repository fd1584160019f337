// Dense reference for the per-chip sampler: every one of the 44 cells
// is transformed and every minimum scans all of them. The production
// sampler must reproduce its reports bit for bit.
package fleet

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/splitmix"
)

// denseState is the dense reference's per-chip scratch.
type denseState struct {
	k    [numCells]float64 // per-chip variation multipliers
	z    [numCells]float64 // per-chip draw transform (−ln u)^(1/β) / k
	t    [numCells]float64 // per-policy intrinsic failure times
	work [numCells]float64 // scenario scratch (mutated by repairs)
}

// denseChip draws one chip's process variation, transforms all 44
// lifetime uniforms and plays them through every (policy, scenario)
// pair, scanning every cell for each minimum.
func (e *Engine) denseChip(st *denseState, chip uint64, acc []accum, binW float64) {
	vr := chipStream(e.cfg.Seed, saltVariation, chip)
	sampleVariation(&vr, e.cfg.Variation, &st.k)

	lr := chipStream(e.cfg.Seed, saltLifetime, chip)
	for c := 0; c < numCells; c++ {
		u := lr.Uniform()
		st.z[c] = math.Exp(e.invBeta[c]*math.Log(-math.Log(u))) / st.k[c]
	}

	nscen := len(e.cfg.Scenarios)
	for pi := range e.policies {
		eta := &e.policies[pi].eta
		for c := 0; c < numCells; c++ {
			st.t[c] = eta[c] * st.z[c]
		}
		t0, c0 := minCell(&st.t)
		for si := range e.cfg.Scenarios {
			sc := &e.cfg.Scenarios[si]
			tFail, cFail := t0, c0
			if sc.Spares > 0 {
				st.work = st.t
				rr := chipStream(e.cfg.Seed, saltRepair^splitmix.Mix64(uint64(pi)<<32|uint64(si)), chip)
				for rep := 0; rep < sc.Spares; rep++ {
					u := rr.Uniform()
					w := math.Exp(e.invBeta[cFail] * math.Log(-math.Log(u)))
					st.work[cFail] = tFail + eta[cFail]*(w/st.k[cFail])
					tFail, cFail = minCell(&st.work)
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
				idx = e.cfg.Bins
			}
			a.bins[idx]++
		}
	}
}

// sampleVariation fills k with one chip's per-cell FIT-rate multipliers
// from the chip's variation substream.
func sampleVariation(r *splitmix.Stream, p VariationParams, k *[numCells]float64) {
	// Chip-level leakage factor, folded per mechanism.
	var lg [numMechs]float64
	if p.LeakSigma > 0 {
		u1 := r.Uniform()
		u2 := r.Uniform()
		lnL := math.Log(lognormal(u1, u2, p.LeakSigma))
		for m := range lg {
			lg[m] = math.Exp(p.LeakGamma[m] * lnL)
		}
	} else {
		for m := range lg {
			lg[m] = 1
		}
	}
	for s := 0; s < numStructs; s++ {
		sv := 1.0
		if p.StructSigma > 0 {
			u1 := r.Uniform()
			u2 := r.Uniform()
			sv = lognormal(u1, u2, p.StructSigma)
		}
		for m := 0; m < numMechs; m++ {
			k[s*numMechs+m] = sv * lg[m]
		}
	}
}

// minCell returns the smallest cell time and its index, the lowest on
// a tie.
func minCell(t *[numCells]float64) (float64, int) {
	best, arg := t[0], 0
	for c := 1; c < numCells; c++ {
		if t[c] < best {
			best, arg = t[c], c
		}
	}
	return best, arg
}

// denseReport runs every chip through denseChip, grouped into Run's
// shards and merged in Run's order, so its report is bitwise
// comparable with Run's.
func denseReport(e *Engine) *Report {
	accs := e.shardAccums()
	binW := e.cfg.HorizonYears / float64(e.cfg.Bins)
	var st denseState
	for sh := range accs {
		lo := sh * e.cfg.ShardSize
		hi := min(lo+e.cfg.ShardSize, e.cfg.Chips)
		for chip := lo; chip < hi; chip++ {
			e.denseChip(&st, uint64(chip), accs[sh], binW)
		}
	}
	return e.buildReport(e.mergeShards(accs), len(accs))
}

// checkAgainstDense runs eng and fails t unless its report is bitwise
// the dense reference's.
func checkAgainstDense(t *testing.T, eng *Engine) *Report {
	t.Helper()
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(rep), reportDigest(denseReport(eng)); got != want {
		t.Fatalf("sampler report digest %#x, dense reference %#x", got, want)
	}
	return rep
}

// fullGrid returns an assessment with every cell active, as a RAMP
// assessment of a real run is, at FITs spread over two decades.
func fullGrid() core.Assessment {
	var a core.Assessment
	for s := range a.FIT {
		for m := range a.FIT[s] {
			a.FIT[s][m] = 10 + float64((37*s+11*m)%100)*10
		}
	}
	return a
}

// oracleAssessment draws a seeded assessment: each cell is active with
// probability pActive, at a FIT spread log-uniformly over [1, 3000].
func oracleAssessment(r *splitmix.Stream, pActive float64) core.Assessment {
	var a core.Assessment
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		for _, m := range core.Mechanisms() {
			if r.Uniform() <= pActive {
				a.FIT[s][m] = math.Exp(r.Uniform() * math.Log(3000))
			}
		}
	}
	return a
}

// TestSamplerMatchesDense holds Run to the dense reference bit for bit
// over 24 seeded configurations. They span Weibull shapes from 0.5 to
// 5, both variation sigmas at 0, 0.08 and 1, leakage exponents up to 4,
// one to four policies (full grids, sparse grids with inactive cells,
// and policies with fewer active cells than the largest spare count
// plus one), spare counts 0, 1, 2 and 16, and duty cycles below 1.
// A lifetime draw of exactly u = 1 (probability 2^-53 per cell) on an
// inactive cell is excluded: the dense loop's 0·Inf is NaN there.
func TestSamplerMatchesDense(t *testing.T) {
	sigmas := []float64{0, 0.08, 1}
	shapes := []float64{0.5, 0.8, 1, 1.5, 2, 2.2, 2.5, 3.5, 5}
	spares := []int{0, 1, 2, 16}
	chips := 6000
	if testing.Short() {
		chips = 1500
	}
	r := splitmix.NewStream(splitmix.Mix64(2004))
	for i := 0; i < 24; i++ {
		cfg := DefaultConfig(chips, uint64(i)+1)
		cfg.ShardSize = 1024
		for m := range cfg.Shapes {
			cfg.Shapes[m] = shapes[(i+3*m)%len(shapes)]
		}
		cfg.Variation.StructSigma = sigmas[i%3]
		cfg.Variation.LeakSigma = sigmas[(i/3)%3]
		for m := range cfg.Variation.LeakGamma {
			cfg.Variation.LeakGamma[m] = 4 * r.Uniform()
		}
		s := spares[i%4]
		cfg.Scenarios = []Scenario{
			NominalScenario(),
			{Name: "checkpoint", Duty: 0.5 + 0.5*r.Uniform()},
			{Name: "repair", Duty: 0.8, Spares: s},
			{Name: "repair1", Duty: 1, Spares: min(s, 1)},
		}
		var policies []Policy
		for p := 0; p <= (i/4)%4; p++ {
			var a core.Assessment
			switch (i + p) % 4 {
			case 0: // every cell active, as a RAMP assessment is
				a = oracleAssessment(&r, 1)
			case 1: // sparse, with inactive cells between active ones
				a = oracleAssessment(&r, 0.3)
			case 2: // fewer active cells than the largest spare count + 1
				a = singleCell(floorplan.Structure(r.Intn(int(floorplan.NumStructures))), core.Mechanism(r.Intn(int(core.NumMechanisms))), 500)
				a.FIT[floorplan.FPU][core.TC] = 800
			default:
				a = multiCell()
			}
			policies = append(policies, Policy{Name: fmt.Sprintf("p%d", p), Assessment: a})
		}
		name := fmt.Sprintf("cfg%02d/struct%g/leak%g/spares%d/policies%d", i, cfg.Variation.StructSigma, cfg.Variation.LeakSigma, s, len(policies))
		t.Run(name, func(t *testing.T) {
			eng, err := New(cfg, policies)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstDense(t, eng)
		})
	}
}
