package sensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/power"
)

func engine(t *testing.T) *core.Engine {
	t.Helper()
	q := core.Qualification{
		TqualK: 400, VqualV: 1, FqualHz: 4e9, Aqual: 0.5,
		TargetFIT: core.StandardTargetFIT,
	}
	e, err := core.NewEngine(floorplan.R10000Like(), core.DefaultParams(core.TCAmbientK), q)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// totalFIT is the engine's assessed total FIT.
func totalFIT(t *testing.T, e *core.Engine) float64 {
	t.Helper()
	a, err := e.Assess()
	if err != nil {
		t.Fatal(err)
	}
	return a.TotalFIT
}

func interval(tempK, activity float64) core.Interval {
	iv := core.Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = core.Conditions{
			TempK: tempK, VddV: 1, FreqHz: 4e9, Activity: activity, OnFraction: 1,
		}
	}
	return iv
}

func TestSpecValidation(t *testing.T) {
	bad := []TempSensorSpec{
		{QuantK: -1, FilterAlpha: 1},
		{NoiseStdK: -1, FilterAlpha: 1},
		{FilterAlpha: 0},
		{FilterAlpha: 1.5},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
	if (CounterSpec{Bits: 0}).Validate() == nil || (CounterSpec{Bits: 64}).Validate() == nil {
		t.Error("bad counter spec accepted")
	}
	if DefaultTempSensors().Validate() != nil || DefaultCounters().Validate() != nil {
		t.Error("default specs invalid")
	}
}

func TestPerfectSensorIsTransparent(t *testing.T) {
	spec := TempSensorSpec{QuantK: 0, BiasK: 0, NoiseStdK: 0, FilterAlpha: 1}
	a, err := NewTempArray(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	trueK := uniform(365.25)
	got := a.Read(trueK)
	for s := range got {
		if got[s] != trueK[s] {
			t.Fatalf("perfect sensor altered reading: %v vs %v", got[s], trueK[s])
		}
	}
}

func TestQuantisation(t *testing.T) {
	spec := TempSensorSpec{QuantK: 2, FilterAlpha: 1}
	a, err := NewTempArray(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Read(uniform(365.7))
	for s := range got {
		if got[s] != 366 {
			t.Fatalf("quantised reading %v, want 366", got[s])
		}
	}
}

func TestBiasIsFixedPerSensor(t *testing.T) {
	spec := TempSensorSpec{BiasK: 3, FilterAlpha: 1}
	a, err := NewTempArray(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	r1 := a.Read(uniform(360))
	r2 := a.Read(uniform(360))
	for s := range r1 {
		if r1[s] != r2[s] {
			t.Fatalf("bias-only sensor not repeatable: %v vs %v", r1[s], r2[s])
		}
		if math.Abs(r1[s]-360) > 3 {
			t.Fatalf("bias %v outside spec bound", r1[s]-360)
		}
	}
	// Different dies (seeds) get different calibration errors.
	b, _ := NewTempArray(spec, 43)
	rb := b.Read(uniform(360))
	same := true
	for s := range r1 {
		if r1[s] != rb[s] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical bias vectors")
	}
}

func TestFilterLag(t *testing.T) {
	spec := TempSensorSpec{FilterAlpha: 0.5}
	a, err := NewTempArray(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Read(uniform(350)) // initialise at 350
	got := a.Read(uniform(370))
	for s := range got {
		if math.Abs(got[s]-360) > 1e-9 { // halfway to the step
			t.Fatalf("lagged reading %v, want 360", got[s])
		}
	}
}

func TestCounterQuantize(t *testing.T) {
	c := CounterSpec{Bits: 2} // 4 levels
	cases := []struct{ in, want float64 }{
		{0, 0}, {1, 1}, {0.24, 0.25}, {0.6, 0.5}, {0.88, 1.0},
	}
	for _, cse := range cases {
		if got := c.Quantize(cse.in); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("Quantize(%v) = %v, want %v", cse.in, got, cse.want)
		}
	}
	if c.Quantize(-0.3) != 0 || c.Quantize(1.4) != 1 {
		t.Error("quantizer not clamped")
	}
}

func TestHarnessSensedFITTracksIdeal(t *testing.T) {
	// With realistic sensors, the hardware-observed FIT should land
	// within a few percent of the model-ideal FIT.
	ideal := engine(t)
	iv := interval(375, 0.4)
	for i := 0; i < 20; i++ {
		if err := ideal.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	idealFIT := totalFIT(t, ideal)

	temps, err := NewTempArray(DefaultTempSensors(), 5)
	if err != nil {
		t.Fatal(err)
	}
	sensedEngine := engine(t)
	h, err := NewHarness(temps, DefaultCounters(), sensedEngine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := h.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	sensedFIT := totalFIT(t, sensedEngine)
	relErr := math.Abs(sensedFIT-idealFIT) / idealFIT
	if relErr > 0.25 {
		t.Fatalf("sensed FIT %v vs ideal %v (%.1f%% error)", sensedFIT, idealFIT, relErr*100)
	}
	if sensedFIT == idealFIT {
		t.Fatal("sensors had no effect at all — emulation inert?")
	}
}

func TestHarnessCoarserSensorsHurt(t *testing.T) {
	iv := interval(375, 0.4)
	run := func(spec TempSensorSpec, seeds []int64) float64 {
		var worst float64
		for _, seed := range seeds {
			ideal := engine(t)
			sensed := engine(t)
			temps, err := NewTempArray(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHarness(temps, DefaultCounters(), sensed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := ideal.Observe(iv); err != nil {
					t.Fatal(err)
				}
				if _, err := h.Observe(iv); err != nil {
					t.Fatal(err)
				}
			}
			e := math.Abs(totalFIT(t, sensed)-totalFIT(t, ideal)) /
				totalFIT(t, ideal)
			if e > worst {
				worst = e
			}
		}
		return worst
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	fine := run(TempSensorSpec{QuantK: 0.5, BiasK: 0.5, NoiseStdK: 0.2, FilterAlpha: 1}, seeds)
	coarse := run(TempSensorSpec{QuantK: 4, BiasK: 6, NoiseStdK: 2, FilterAlpha: 1}, seeds)
	if coarse <= fine {
		t.Fatalf("coarse sensors (err %.3f) not worse than fine (err %.3f)", coarse, fine)
	}
}

func TestHarnessValidation(t *testing.T) {
	temps, _ := NewTempArray(DefaultTempSensors(), 1)
	if _, err := NewHarness(nil, DefaultCounters(), engine(t)); err == nil {
		t.Fatal("nil temps accepted")
	}
	if _, err := NewHarness(temps, CounterSpec{Bits: 0}, engine(t)); err == nil {
		t.Fatal("bad counters accepted")
	}
	if _, err := NewHarness(temps, DefaultCounters(), nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

// Property: sensor readings stay within bias+noise+quantisation bounds
// of the truth once the filter has settled.
func TestSensorErrorBoundQuick(t *testing.T) {
	spec := TempSensorSpec{QuantK: 1, BiasK: 2, NoiseStdK: 0.3, FilterAlpha: 1}
	f := func(seed int64, raw uint16) bool {
		trueT := 330 + float64(raw%70)
		a, err := NewTempArray(spec, seed)
		if err != nil {
			return false
		}
		got := a.Read(uniform(trueT))
		bound := spec.BiasK + 5*spec.NoiseStdK + spec.QuantK
		for s := range got {
			if math.Abs(got[s]-trueT) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
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
