package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ramp/internal/config"
	"ramp/internal/floorplan"
)

func model() *Model {
	return NewModel(floorplan.R10000Like(), config.Tech65nm())
}

func TestDynamicIdleFloor(t *testing.T) {
	m := model()
	idle := m.Dynamic(floorplan.IntALU, 0, 1.0, 4e9, 1)
	full := m.Dynamic(floorplan.IntALU, 1, 1.0, 4e9, 1)
	if math.Abs(idle/full-IdleFraction) > 1e-12 {
		t.Fatalf("idle/full = %v, want %v", idle/full, IdleFraction)
	}
	if full != m.maxDyn[floorplan.IntALU] {
		t.Fatalf("full-activity power %v != budget %v", full, m.maxDyn[floorplan.IntALU])
	}
}

func TestDynamicScalesWithV2F(t *testing.T) {
	m := model()
	base := m.Dynamic(floorplan.Window, 0.5, 1.0, 4e9, 1)
	halfF := m.Dynamic(floorplan.Window, 0.5, 1.0, 2e9, 1)
	if math.Abs(halfF/base-0.5) > 1e-12 {
		t.Fatalf("frequency scaling broken: %v", halfF/base)
	}
	loV := m.Dynamic(floorplan.Window, 0.5, 0.8, 4e9, 1)
	if math.Abs(loV/base-0.64) > 1e-12 {
		t.Fatalf("voltage scaling broken: %v", loV/base)
	}
}

func TestDynamicGating(t *testing.T) {
	m := model()
	full := m.Dynamic(floorplan.FPU, 0.3, 1.0, 4e9, 1)
	half := m.Dynamic(floorplan.FPU, 0.3, 1.0, 4e9, 0.5)
	off := m.Dynamic(floorplan.FPU, 0.3, 1.0, 4e9, 0)
	if math.Abs(half/full-0.5) > 1e-12 || off != 0 {
		t.Fatalf("gating scaling broken: %v %v", half/full, off)
	}
}

func TestDynamicPanicsOnBadActivity(t *testing.T) {
	m := model()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Dynamic(floorplan.L1D, 1.5, 1.0, 4e9, 1)
}

func TestLeakageReference(t *testing.T) {
	m := model()
	fp := floorplan.R10000Like()
	// At the reference temperature (383 K) and nominal voltage the total
	// leakage is 0.5 W/mm^2 over the whole die (Section 6.3).
	var sum float64
	for _, s := range floorplan.Structures() {
		sum += m.Leakage(s, 383, 1.0, 1)
	}
	want := 0.5 * fp.TotalAreaMM2()
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("leakage at reference = %v, want %v", sum, want)
	}
}

func TestLeakageTemperatureExponential(t *testing.T) {
	m := model()
	l380 := m.Leakage(floorplan.L1D, 380, 1.0, 1)
	l390 := m.Leakage(floorplan.L1D, 390, 1.0, 1)
	wantRatio := math.Exp(0.017 * 10)
	if math.Abs(l390/l380-wantRatio) > 1e-9 {
		t.Fatalf("leakage ratio = %v, want %v", l390/l380, wantRatio)
	}
}

func TestComputeSumsDynamicAndLeakage(t *testing.T) {
	m := model()
	act := Uniform(0.3)
	temps := Uniform(360)
	on := Ones()
	var total Vector
	m.ComputeInto(total[:], act, on, temps[:], 1.0, 4e9)
	for _, s := range floorplan.Structures() {
		want := m.Dynamic(s, 0.3, 1.0, 4e9, 1) + m.Leakage(s, 360, 1.0, 1)
		if total[s] != want {
			t.Fatalf("ComputeInto[%v] = %v, want %v", s, total[s], want)
		}
	}
}

func TestVectorSum(t *testing.T) {
	v := Uniform(2)
	if v.Sum() != 2*float64(floorplan.NumStructures) {
		t.Fatalf("sum = %v", v.Sum())
	}
}

func TestOnFractionsVector(t *testing.T) {
	base := config.Base()
	small := base
	small.WindowSize = 32
	small.IntALUs = 2
	small.FPUs = 1
	v := OnFractions(small, base)
	if v[floorplan.Window] != 0.25 || v[floorplan.FPU] != 0.25 {
		t.Fatalf("window/fpu fractions %v %v", v[floorplan.Window], v[floorplan.FPU])
	}
	// Non-adaptive structures stay fully on.
	for _, s := range []floorplan.Structure{floorplan.Fetch, floorplan.BPred, floorplan.L1I, floorplan.L1D, floorplan.AGU} {
		if v[s] != 1 {
			t.Fatalf("%v gated: %v", s, v[s])
		}
	}
}

// Property: total power is monotone in activity, voltage, frequency and
// temperature.
func TestPowerMonotonicity(t *testing.T) {
	m := model()
	f := func(a1, a2 float64, raw uint8) bool {
		a1 = clamp01(a1)
		a2 = clamp01(a2)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		s := floorplan.Structure(int(raw) % int(floorplan.NumStructures))
		if m.Dynamic(s, a1, 1.0, 4e9, 1) > m.Dynamic(s, a2, 1.0, 4e9, 1)+1e-12 {
			return false
		}
		return m.Leakage(s, 350, 1.0, 1) <= m.Leakage(s, 360, 1.0, 1)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	x = math.Abs(x)
	return x - math.Floor(x)
}

// TestComputeIntoTileAllocFree pins the manycore tile path: ComputeInto
// into one core's sub-slice of a flat two-core slice writes exactly
// Dynamic + Leakage per structure, leaves the other tile untouched and
// allocates nothing.
func TestComputeIntoTileAllocFree(t *testing.T) {
	m := model()
	var act, temps Vector
	for s := range act {
		act[s] = float64(s) / float64(len(act))
		temps[s] = 340.0 + 2.5*float64(s)
	}
	on := Ones()
	on[floorplan.FPU] = 0.5
	ns := int(floorplan.NumStructures)
	flat := make([]float64, 2*ns)
	tile := flat[ns:]
	m.ComputeInto(tile, act, on, temps[:], 0.95, 3.5e9)
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		want := m.Dynamic(s, act[s], 0.95, 3.5e9, on[s]) + m.Leakage(s, temps[s], 0.95, on[s])
		if tile[s] != want {
			t.Fatalf("ComputeInto[%v] = %v, want %v", s, tile[s], want)
		}
		if flat[s] != 0 {
			t.Fatalf("ComputeInto wrote outside its tile at %v", s)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.ComputeInto(tile, act, on, temps[:], 0.95, 3.5e9)
	})
	if allocs != 0 {
		t.Fatalf("ComputeInto allocates %.1f times per call, want 0", allocs)
	}
}
