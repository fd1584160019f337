package thermal

import (
	"math"
	"math/rand"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

// The production solves run against matrices factorized once at New
// time. These tests check every factorized path of the one-core model
// against the original one-shot Gaussian elimination (the retained
// dense type), assembling the same systems the pre-factorization code
// assembled per call.

// conductance returns the conductance between nodes i ≠ j: the full
// matrix is a Laplacian, so it holds the negation off the diagonal.
func (m *Model) conductance(i, j int) float64 { return -m.fullA[i*m.n+j] }

// refQuasiSteady solves the pinned-sink system with the dense oracle.
func refQuasiSteady(m *Model, blockPower power.Vector, sinkTempK float64) power.Vector {
	n := m.n - 1
	a := newDense(n)
	b := make([]float64, n)
	sink := m.n - 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			g := m.conductance(i, j)
			if g != 0 {
				a.add(i, i, g)
				a.add(i, j, -g)
			}
		}
		if g := m.conductance(i, sink); g != 0 {
			a.add(i, i, g)
			b[i] += g * sinkTempK
		}
	}
	for s := 0; s < int(floorplan.NumStructures); s++ {
		b[s] += blockPower[s]
	}
	t := a.solve(b)
	var out power.Vector
	copy(out[:], t[:floorplan.NumStructures])
	return out
}

// refSteadyState solves the full network with the dense oracle.
func refSteadyState(m *Model, blockPower power.Vector) []float64 {
	a := newDense(m.n)
	b := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i == j {
				continue
			}
			g := m.conductance(i, j)
			if g != 0 {
				a.add(i, i, g)
				a.add(i, j, -g)
			}
		}
	}
	sink := m.n - 1
	a.add(sink, sink, m.gSinkA)
	b[sink] += m.gSinkA * m.p.AmbientK
	for s := 0; s < int(floorplan.NumStructures); s++ {
		b[s] += blockPower[s]
	}
	return a.solve(b)
}

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
		want := refQuasiSteady(m, pw, sinkK)
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
		want := refSteadyState(m, pw)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("trial %d node %d: LU %v vs GE %v (|Δ| = %v)", trial, i, got[i], want[i], d)
			}
		}
	}
}

// refStep advances one implicit-Euler step with the dense oracle,
// mirroring the pre-factorization Step implementation.
func refStep(m *Model, temps []float64, blockPower power.Vector, dt float64) []float64 {
	a := newDense(m.n)
	b := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i == j {
				continue
			}
			g := m.conductance(i, j)
			if g != 0 {
				a.add(i, i, g)
				a.add(i, j, -g)
			}
		}
	}
	sink := m.n - 1
	a.add(sink, sink, m.gSinkA)
	b[sink] += m.gSinkA * m.p.AmbientK
	for i := 0; i < m.n; i++ {
		cd := m.c[i] / dt
		a.add(i, i, cd)
		b[i] += cd * temps[i]
	}
	for s := 0; s < int(floorplan.NumStructures); s++ {
		b[s] += blockPower[s]
	}
	return a.solve(b)
}

func TestStepMatchesGaussianElimination(t *testing.T) {
	m := model()
	rng := rand.New(rand.NewSource(3))
	st := m.NewState(330)
	want := append([]float64(nil), st.Temps()...)
	// Alternate two step sizes so the cached factorization is exercised
	// both on reuse and on dt-change refactorization.
	dts := []float64{1e-3, 1e-3, 5e-2, 5e-2, 1e-3}
	for trial, dt := range dts {
		pw := randomPower(rng)
		st.Step(pw[:], dt)
		want = refStep(m, want, pw, dt)
		got := st.Temps()
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("step %d node %d: LU %v vs GE %v (|Δ| = %v)", trial, i, got[i], want[i], d)
			}
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
