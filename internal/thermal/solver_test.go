package thermal

import (
	"math"
	"math/rand"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

// The production solve runs against the quasi-steady matrix factorized
// once at New time. These tests check the factorized solves of the
// one-core model against one-shot Gaussian elimination (gaussSolve) of
// the same assembled systems.

// randomPower draws a power vector with per-block draws spanning idle to
// well above budget, so pivoting sees varied right-hand sides.
func randomPower(rng *rand.Rand) power.Vector {
	var pw power.Vector
	for i := range pw {
		pw[i] = 8 * rng.Float64()
	}
	return pw
}

func TestPrefactorizedQuasiSteadyMatchesGaussianElimination(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pw := randomPower(rng)
		sinkK := 320 + 80*rng.Float64()
		got := quasiSteady(m, pw, sinkK)
		want := refQuasiSteady(m, pw[:], sinkK)
		for s := range got {
			if d := math.Abs(got[s] - want[s]); d > 1e-9 {
				t.Fatalf("trial %d block %d: LU %v vs GE %v (|Δ| = %v)", trial, s, got[s], want[s], d)
			}
		}
	}
}

func TestPrefactorizedSteadyStateMatchesGaussianElimination(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		pw := randomPower(rng)
		got := m.SteadyState(pw[:])
		want := refSteadyState(m, pw[:])
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("trial %d node %d: LU %v vs GE %v (|Δ| = %v)", trial, i, got[i], want[i], d)
			}
		}
	}
}

// TestFactorNonzeros pins how many factor entries the quasi-steady
// solve substitutes over, out of the dense (n-1)² it used to.
func TestFactorNonzeros(t *testing.T) {
	for _, tc := range []struct{ cores, nnz, dense int }{
		{1, 108, 144},
		{4, 567, 2025},
		{8, 1339, 7921},
	} {
		m := MustNew(floorplan.MustNewDie(floorplan.R10000Like(), tc.cores), DieParams(318.15, tc.cores))
		nq := m.Nodes() - 1
		if got := len(m.quasi.val); got != tc.nnz || nq*nq != tc.dense {
			t.Errorf("%d cores: %d of %d factor entries nonzero, want %d of %d", tc.cores, got, nq*nq, tc.nnz, tc.dense)
		}
	}
}

func TestQuasiSteadyDoesNotAllocate(t *testing.T) {
	m := model()
	pw := power.Uniform(2.5)
	x := make([]float64, m.Nodes()-1)
	allocs := testing.AllocsPerRun(100, func() {
		m.QuasiSteadyInto(x, pw[:], 340)
	})
	if allocs != 0 {
		t.Fatalf("QuasiSteadyInto allocates %v objects per call, want 0", allocs)
	}
}
