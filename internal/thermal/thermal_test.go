package thermal

import (
	"math"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

// model is the paper's single core: the one-core die.
func model() *Model {
	return MustNew(floorplan.MustNewDie(floorplan.R10000Like(), 1), DefaultParams(313))
}

// quasiSteady solves the one-core model with the sink pinned and
// returns the block temperatures.
func quasiSteady(m *Model, pw power.Vector, sinkK float64) power.Vector {
	var x [floorplan.NumStructures + 1]float64 // the blocks, then the spreader
	m.QuasiSteadyInto(x[:], pw[:], sinkK)
	var out power.Vector
	copy(out[:], x[:])
	return out
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := model()
	temps := m.SteadyState(make([]float64, floorplan.NumStructures))
	for i, temp := range temps {
		if math.Abs(temp-313) > 1e-6 {
			t.Fatalf("node %d at %v K with zero power", i, temp)
		}
	}
}

func TestSinkTempEnergyConservation(t *testing.T) {
	m := model()
	// In steady state all generated heat flows through the sink's
	// convection resistance: T_sink = T_amb + P_total * R_sink.
	pw := uniform(2.0) // 22 W total
	temps := m.SteadyState(pw[:])
	sink := temps[len(temps)-1]
	want := m.SinkSteadyTemp(pw.Sum())
	if math.Abs(sink-want) > 1e-6 {
		t.Fatalf("sink temp = %v, want %v", sink, want)
	}
}

func TestTemperatureOrdering(t *testing.T) {
	m := model()
	pw := uniform(2.0)
	temps := m.SteadyState(pw[:])
	sink := temps[len(temps)-1]
	spreader := temps[len(temps)-2]
	if !(spreader > sink && sink > 313) {
		t.Fatalf("ordering broken: spreader %v sink %v", spreader, sink)
	}
	for s := 0; s < int(floorplan.NumStructures); s++ {
		if temps[s] <= spreader {
			t.Fatalf("powered block %v cooler than spreader", floorplan.Structure(s))
		}
	}
}

func TestPowerDensityDrivesHotspots(t *testing.T) {
	m := model()
	fp := floorplan.R10000Like()
	// Equal power into a small block vs a large one: the small block
	// (higher density) must run hotter.
	var pw power.Vector
	pw[floorplan.AGU] = 3 // 0.81 mm^2
	pw[floorplan.L1D] = 3 // 4.05 mm^2
	temps := m.SteadyState(pw[:])
	if temps[floorplan.AGU] <= temps[floorplan.L1D] {
		t.Fatalf("denser block not hotter: AGU %v (%.2fmm2) vs L1D %v (%.2fmm2)",
			temps[floorplan.AGU], fp.AreaMM2(floorplan.AGU),
			temps[floorplan.L1D], fp.AreaMM2(floorplan.L1D))
	}
}

func TestLateralCouplingWarmsNeighbours(t *testing.T) {
	m := model()
	var pw power.Vector
	pw[floorplan.IntALU] = 10
	temps := m.SteadyState(pw[:])
	// AGU is adjacent to IntALU; BPred is across the die.
	if temps[floorplan.AGU] <= temps[floorplan.BPred] {
		t.Fatalf("adjacent block not warmer: AGU %v vs BPred %v",
			temps[floorplan.AGU], temps[floorplan.BPred])
	}
}

func TestQuasiSteadyMatchesSteadyState(t *testing.T) {
	m := model()
	pw := uniform(2.5)
	full := m.SteadyState(pw[:])
	sink := full[len(full)-1]
	qs := quasiSteady(m, pw, sink)
	for s := 0; s < int(floorplan.NumStructures); s++ {
		if math.Abs(qs[s]-full[s]) > 1e-6 {
			t.Fatalf("block %v: quasi %v vs full %v", floorplan.Structure(s), qs[s], full[s])
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	p := DefaultParams(313)
	p.SinkRKW = 0
	if _, err := New(floorplan.MustNewDie(floorplan.R10000Like(), 1), p); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestMaxCoreTemp(t *testing.T) {
	m := MustNew(floorplan.MustNewDie(floorplan.R10000Like(), 2), DieParams(313, 2))
	temps := make([]float64, m.Nodes()-1)
	temps[floorplan.FPU] = 400
	temps[floorplan.L1I] = 350
	temps[m.die.Index(1, floorplan.Fetch)] = 380
	temps[m.NumBlocks()] = 500 // the spreader belongs to no core
	if got := m.MaxCoreTemp(temps, 0); got != 400 {
		t.Fatalf("MaxCoreTemp(core 0) = %v, want 400", got)
	}
	if got := m.MaxCoreTemp(temps, 1); got != 380 {
		t.Fatalf("MaxCoreTemp(core 1) = %v, want 380", got)
	}
}

func TestMoreCoolingLowersTemps(t *testing.T) {
	p1 := DefaultParams(313)
	p2 := p1
	p2.SinkRKW = p1.SinkRKW / 2
	die := floorplan.MustNewDie(floorplan.R10000Like(), 1)
	m1 := MustNew(die, p1)
	m2 := MustNew(die, p2)
	pw := uniform(3)
	t1 := m1.SteadyState(pw[:])
	t2 := m2.SteadyState(pw[:])
	for i := range t1 {
		if t2[i] >= t1[i] {
			t.Fatalf("better sink did not cool node %d: %v vs %v", i, t2[i], t1[i])
		}
	}
}

// uniform returns a power.Vector with every entry x.
func uniform(x float64) power.Vector {
	var v power.Vector
	for i := range v {
		v[i] = x
	}
	return v
}
