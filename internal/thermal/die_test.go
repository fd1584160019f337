package thermal

import (
	"math"
	"testing"

	"ramp/internal/floorplan"
)

// TestDieModelDenseOracle checks the factorized solves on a genuinely
// tiled system (N=4, 46 nodes) against the dense Gaussian-elimination
// oracle.
func TestDieModelDenseOracle(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 4)
	m := MustNew(die, DieParams(318.15, 4))

	bp := make([]float64, m.nb)
	for i := range bp {
		bp[i] = 0.5 + 0.07*float64(i%11) + 0.4*float64(i/11)
	}

	// Quasi-steady: sink pinned.
	sinkT := 352.0
	want := refQuasiSteady(m, bp, sinkT)
	got := make([]float64, m.n-1)
	m.QuasiSteadyInto(got, bp, sinkT)
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9 {
			t.Fatalf("quasi block %d: LU %v, dense %v (diff %g)", i, got[i], want[i], diff)
		}
	}

	// Full steady state: sink connected to ambient.
	wantSS := refSteadyState(m, bp)
	gotSS := m.SteadyState(bp)
	for i := range gotSS {
		if diff := math.Abs(gotSS[i] - wantSS[i]); diff > 1e-9 {
			t.Fatalf("steady node %d: LU %v, dense %v (diff %g)", i, gotSS[i], wantSS[i], diff)
		}
	}
}

// TestDieModelCrossCoreCoupling checks that tile-seam conductances are
// real: on a 1×2 die with only core 0 powered, core 1's blocks rise
// above the pinned sink temperature (heat arrives laterally through the
// seam), and blocks of core 1 nearest the seam are warmer than the
// average of its far blocks.
func TestDieModelCrossCoreCoupling(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 2)
	m := MustNew(die, DieParams(318.15, 2))

	bp := make([]float64, m.nb)
	for s := 0; s < int(floorplan.NumStructures); s++ {
		bp[s] = 2.0 // core 0 busy, core 1 idle
	}
	sinkT := 340.0
	temps := make([]float64, m.Nodes()-1)
	m.QuasiSteadyInto(temps, bp, sinkT)

	hot := m.MaxCoreTemp(temps, 0)
	idleMax := m.MaxCoreTemp(temps, 1)
	idleMin := temps[m.die.Index(1, 0)]
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		if v := temps[m.die.Index(1, s)]; v < idleMin {
			idleMin = v
		}
	}
	if hot <= idleMax {
		t.Fatalf("powered core (%.3f K) not hotter than idle core (%.3f K)", hot, idleMax)
	}
	if idleMin <= sinkT {
		t.Fatalf("idle core at %.6f K did not rise above pinned sink %.1f K — no cross-core coupling", idleMin, sinkT)
	}
}

// TestDieModelQuasiSteadyAllocFree pins the hot-path contract on a
// four-core die: a QuasiSteadyInto solve performs zero heap allocations.
func TestDieModelQuasiSteadyAllocFree(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 4)
	m := MustNew(die, DieParams(318.15, 4))
	bp := make([]float64, m.nb)
	for i := range bp {
		bp[i] = 1.0
	}
	out := make([]float64, m.Nodes()-1)
	allocs := testing.AllocsPerRun(100, func() {
		m.QuasiSteadyInto(out, bp, 350.0)
	})
	if allocs != 0 {
		t.Fatalf("QuasiSteadyInto allocates %.1f times per solve, want 0", allocs)
	}
}

// TestDieParamsN1 pins DieParams(ambient, 1) == DefaultParams(ambient):
// the single-core package is unchanged by the manycore scaling.
func TestDieParamsN1(t *testing.T) {
	if DieParams(318.15, 1) != DefaultParams(318.15) {
		t.Fatal("DieParams(·, 1) differs from DefaultParams")
	}
	p4 := DieParams(318.15, 4)
	d := DefaultParams(318.15)
	if p4.SinkRKW != d.SinkRKW/4 || p4.SpreaderRKW != d.SpreaderRKW/4 {
		t.Fatalf("DieParams(·, 4) scaling wrong: %+v", p4)
	}
	if p4.DieThicknessM != d.DieThicknessM || p4.KSiliconWmK != d.KSiliconWmK {
		t.Fatal("DieParams must not touch the silicon stack")
	}
}
