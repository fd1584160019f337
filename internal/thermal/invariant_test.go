package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ramp/internal/floorplan"
)

// The tests in this file check the physics of the RC network on seeded
// random inputs, for the paper's single core and a four-core die: energy
// conservation at steady state, no node below ambient, and monotone
// response to power. They also pin that one Model serves concurrent
// solves.

// invariantModels returns the one-core and four-core models the
// property tests run on.
func invariantModels() []*Model {
	var out []*Model
	for _, n := range []int{1, 4} {
		die := floorplan.MustNewDie(floorplan.R10000Like(), n)
		out = append(out, MustNew(die, DieParams(318.15, n)))
	}
	return out
}

// randomBlockPowers draws per-block powers from idle to well above a
// structure's budget.
func randomBlockPowers(rng *rand.Rand, nb int) []float64 {
	pw := make([]float64, nb)
	for i := range pw {
		pw[i] = 6 * rng.Float64()
	}
	return pw
}

// TestSteadyStateConservesEnergy checks that at steady state all the
// power put into the blocks leaves through the sink's convection leg:
// (T_sink − T_ambient)·G_sink = Σ P within 1e-9 relative.
func TestSteadyStateConservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range invariantModels() {
		for trial := 0; trial < 50; trial++ {
			pw := randomBlockPowers(rng, m.NumBlocks())
			var sum float64
			for _, w := range pw {
				sum += w
			}
			temps := m.SteadyState(pw)
			out := (temps[m.Nodes()-1] - m.Ambient()) * m.sinkToAmbient()
			if rel := math.Abs(out-sum) / sum; rel > 1e-9 {
				t.Fatalf("%d cores, trial %d: %.12g W to ambient, %.12g W in (rel %.3g)",
					m.Die().NCores, trial, out, sum, rel)
			}
		}
	}
}

// TestSteadyStateAboveAmbient checks that no node of a powered network
// sits below ambient (the unpowered network is TestZeroPowerIsAmbient).
func TestSteadyStateAboveAmbient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range invariantModels() {
		for trial := 0; trial < 50; trial++ {
			pw := randomBlockPowers(rng, m.NumBlocks())
			for i, v := range m.SteadyState(pw) {
				if v < m.Ambient() {
					t.Fatalf("%d cores, trial %d: node %d at %.9f K, below ambient %.2f K",
						m.Die().NCores, trial, i, v, m.Ambient())
				}
			}
		}
	}
}

// TestSteadyStateMonotoneInPower checks that raising any one block's
// power never lowers any node's temperature.
func TestSteadyStateMonotoneInPower(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range invariantModels() {
		for trial := 0; trial < 5; trial++ {
			pw := randomBlockPowers(rng, m.NumBlocks())
			base := m.SteadyState(pw)
			for k := range pw {
				raised := append([]float64(nil), pw...)
				raised[k] += 0.1 + rng.Float64()
				for i, v := range m.SteadyState(raised) {
					if v < base[i] {
						t.Fatalf("%d cores, trial %d: raising block %d cooled node %d from %.12g to %.12g K",
							m.Die().NCores, trial, k, i, base[i], v)
					}
				}
			}
		}
	}
}

// TestConcurrentSolvesMatchSerial runs 8 goroutines solving distinct
// inputs on one shared four-core model and checks every result against
// the serial solve bit for bit. Under -race it also proves the solves
// share no mutable state.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	const workers, solves = 8, 20
	m := MustNew(floorplan.MustNewDie(floorplan.R10000Like(), 4), DieParams(318.15, 4))
	rng := rand.New(rand.NewSource(14))
	type job struct {
		pw    []float64
		sinkK float64
		quasi []float64 // serial QuasiSteadyInto result
		full  []float64 // serial SteadyState result
	}
	jobs := make([][]job, workers)
	for w := range jobs {
		for i := 0; i < solves; i++ {
			j := job{pw: randomBlockPowers(rng, m.NumBlocks()), sinkK: 320 + 60*rng.Float64()}
			j.quasi = make([]float64, m.Nodes()-1)
			m.QuasiSteadyInto(j.quasi, j.pw, j.sinkK)
			j.full = m.SteadyState(j.pw)
			jobs[w] = append(jobs[w], j)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := make([]float64, m.Nodes()-1)
			for i, j := range jobs[w] {
				m.QuasiSteadyInto(x, j.pw, j.sinkK)
				full := m.SteadyState(j.pw)
				for k := range x {
					if math.Float64bits(x[k]) != math.Float64bits(j.quasi[k]) {
						errs[w] = fmt.Sprintf("solve %d: quasi-steady node %d differs from serial", i, k)
						return
					}
				}
				for k := range full {
					if math.Float64bits(full[k]) != math.Float64bits(j.full[k]) {
						errs[w] = fmt.Sprintf("solve %d: steady-state node %d differs from serial", i, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}
