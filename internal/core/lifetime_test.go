package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ramp/internal/floorplan"
)

// assessAt builds an Assessment by observing constant conditions.
func assessAt(t *testing.T, tempK float64) Assessment {
	t.Helper()
	e := MustNewEngine(floorplan.R10000Like(), params(), qual())
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(tempK)
	}
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	return e.MustAssess()
}

func TestWorkloadFIT(t *testing.T) {
	fit, err := WorkloadFIT([]WorkloadComponent{
		{Name: "a", Weight: 1, FIT: 1000},
		{Name: "b", Weight: 3, FIT: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit-2500) > 1e-9 {
		t.Fatalf("workload FIT = %v, want 2500", fit)
	}
	if y := WorkloadMTTFYears(4000); math.Abs(y-1e9/4000/8760) > 1e-9 {
		t.Fatalf("MTTF years = %v", y)
	}
	if WorkloadMTTFYears(0) != 0 {
		t.Fatal("zero FIT should give zero MTTF sentinel")
	}
}

func TestWorkloadFITErrors(t *testing.T) {
	cases := [][]WorkloadComponent{
		nil,
		{{Name: "a", Weight: -1, FIT: 10}},
		{{Name: "a", Weight: 1, FIT: -10}},
		{{Name: "a", Weight: 0, FIT: 10}},
	}
	for i, c := range cases {
		if _, err := WorkloadFIT(c); err == nil {
			t.Errorf("case %d: bad workload accepted", i)
		}
	}
}

func TestLifetimeExponentialReducesToSOFR(t *testing.T) {
	// With beta = 1 everywhere, the Weibull model IS the SOFR model:
	// the series of exponentials is exponential with the summed rate,
	// so MTTF must match 1e9/FIT.
	a := assessAt(t, 385)
	var shapes WeibullShapes
	for m := range shapes {
		shapes[m] = 1
	}
	lm, err := NewLifetimeModel(a, shapes)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e9 / a.TotalFIT
	got := lm.MTTFHours()
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("exponential lifetime MTTF %v, SOFR %v", got, want)
	}
}

func TestLifetimeWearOutTightensDistribution(t *testing.T) {
	// Wear-out (beta > 1) concentrates failures around the mean: the
	// early tail (1% failures) moves later and the late tail moves
	// earlier than the exponential with the same per-component means.
	a := assessAt(t, 385)
	expShapes := WeibullShapes{1, 1, 1, 1}
	wearShapes := DefaultShapes()

	exp, err := NewLifetimeModel(a, expShapes)
	if err != nil {
		t.Fatal(err)
	}
	wear, err := NewLifetimeModel(a, wearShapes)
	if err != nil {
		t.Fatal(err)
	}
	expEarly, err := exp.TimeToFailureFraction(0.01)
	if err != nil {
		t.Fatal(err)
	}
	wearEarly, err := wear.TimeToFailureFraction(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if wearEarly <= expEarly {
		t.Fatalf("wear-out 1%% failure time %v not later than exponential %v",
			wearEarly, expEarly)
	}
}

func TestLifetimePaperFootnote(t *testing.T) {
	// Footnote 1: a ~30-year MTTF qualification puts the ~11-year
	// consumer service life far in the tail. At the qualification point
	// (FIT = 4000) with wear-out shapes, fewer than ~15% of parts fail
	// within 11 years.
	a := assessAt(t, 400) // the qualification point itself
	if math.Abs(a.TotalFIT-4000) > 1 {
		t.Fatalf("expected target FIT at qual point, got %v", a.TotalFIT)
	}
	lm, err := NewLifetimeModel(a, DefaultShapes())
	if err != nil {
		t.Fatal(err)
	}
	serviceLife := 11.0 * 8760
	fracFailed := 1 - lm.Reliability(serviceLife)
	if fracFailed > 0.15 {
		t.Fatalf("%.1f%% failed within service life — tail not far enough", fracFailed*100)
	}
	if fracFailed <= 0 {
		t.Fatal("wear-out model reports zero failures at 11 years")
	}
}

func TestLifetimeHazardIncreases(t *testing.T) {
	a := assessAt(t, 385)
	lm, err := NewLifetimeModel(a, DefaultShapes())
	if err != nil {
		t.Fatal(err)
	}
	h1 := lm.Hazard(5 * 8760)
	h2 := lm.Hazard(25 * 8760)
	if h2 <= h1 {
		t.Fatalf("wear-out hazard not increasing: %v -> %v", h1, h2)
	}
}

func TestLifetimeMonteCarloMatchesAnalytic(t *testing.T) {
	a := assessAt(t, 390)
	lm, err := NewLifetimeModel(a, DefaultShapes())
	if err != nil {
		t.Fatal(err)
	}
	analytic := lm.MTTFHours()
	mc := lm.MonteCarloMTTFHours(20_000, 7)
	if math.Abs(mc-analytic) > 0.05*analytic {
		t.Fatalf("Monte Carlo MTTF %v vs analytic %v", mc, analytic)
	}
}

func TestLifetimeQuantileInvariants(t *testing.T) {
	a := assessAt(t, 385)
	lm, err := NewLifetimeModel(a, DefaultShapes())
	if err != nil {
		t.Fatal(err)
	}
	t10, err := lm.TimeToFailureFraction(0.10)
	if err != nil {
		t.Fatal(err)
	}
	t90, err := lm.TimeToFailureFraction(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if !(t10 < t90) {
		t.Fatalf("quantiles not ordered: %v %v", t10, t90)
	}
	// Survival at the p-quantile equals 1-p.
	if r := lm.Reliability(t10); math.Abs(r-0.9) > 1e-3 {
		t.Fatalf("R(t10) = %v, want 0.90", r)
	}
	if _, err := lm.TimeToFailureFraction(0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := lm.TimeToFailureFraction(1); err == nil {
		t.Fatal("p=1 accepted")
	}
}

func TestLifetimeWeakestComponent(t *testing.T) {
	a := assessAt(t, 385)
	lm, err := NewLifetimeModel(a, DefaultShapes())
	if err != nil {
		t.Fatal(err)
	}
	s, m := lm.WeakestComponent()
	if s < 0 || s >= floorplan.NumStructures || m < 0 || m >= NumMechanisms {
		t.Fatalf("weakest component out of range: %v %v", s, m)
	}
}

func TestLifetimeModelValidation(t *testing.T) {
	a := assessAt(t, 385)
	bad := DefaultShapes()
	bad[EM] = 0
	if _, err := NewLifetimeModel(a, bad); err == nil {
		t.Fatal("zero shape accepted")
	}
	if _, err := NewLifetimeModel(Assessment{}, DefaultShapes()); err == nil {
		t.Fatal("empty assessment accepted")
	}
}

// Property: hotter assessments produce strictly shorter lifetimes, and
// reliability is monotone decreasing in time.
func TestLifetimeMonotonicityQuick(t *testing.T) {
	shapes := DefaultShapes()
	f := func(r1, r2 uint16) bool {
		t1 := 340 + float64(r1%60)
		t2 := 340 + float64(r2%60)
		if t1 == t2 {
			return true
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		cool, err1 := NewLifetimeModel(assessQuick(t1), shapes)
		hot, err2 := NewLifetimeModel(assessQuick(t2), shapes)
		if err1 != nil || err2 != nil {
			return false
		}
		at := 10.0 * 8760
		return cool.Reliability(at) >= hot.Reliability(at) &&
			cool.Reliability(at) >= cool.Reliability(at*2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func assessQuick(tempK float64) Assessment {
	e := MustNewEngine(floorplan.R10000Like(), params(), qual())
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(tempK)
	}
	if err := e.Observe(iv); err != nil {
		panic(err)
	}
	return e.MustAssess()
}

// TestLifetimeHazardMatchesComponentSum pins the series system's
// cumulative hazard, and the MTTF integrated from it, to a test-local
// sum over every (structure, mechanism) component within 1e-12
// relative, on seeded assessments under the default wear-out shapes, the
// all-exponential (SOFR) shapes and one mixed set. It pins the hazard
// rather than R: R = exp(−H) turns H's relative rounding into an
// absolute one, which in the far tail, where H is in the hundreds, is
// hundreds of times larger relative to R.
func TestLifetimeHazardMatchesComponentSum(t *testing.T) {
	const tol = 1e-12
	shapeSets := []WeibullShapes{DefaultShapes(), {1, 1, 1, 1}, {1.3, 3.1, 0.8, 2.6}}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		e := MustNewEngine(floorplan.R10000Like(), params(), qual())
		iv := Interval{DurationSec: 1}
		for s := range iv.Structures {
			c := conds(330 + 75*rng.Float64())
			c.Activity = 0.1 + 0.8*rng.Float64()
			iv.Structures[s] = c
		}
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
		a := e.MustAssess()
		for _, shapes := range shapeSets {
			lm, err := NewLifetimeModel(a, shapes)
			if err != nil {
				t.Fatal(err)
			}
			horizon := refHorizonHours(lm)
			for k := 1; k <= 400; k++ {
				at := horizon * float64(k) / 400
				got, want := lm.cumHazard(at), refCumHazard(lm, at)
				if rel := math.Abs(got-want) / want; rel > tol {
					t.Fatalf("trial %d shapes %v: H(%.6g h) = %.17g, component sum %.17g (rel %.3g)",
						trial, shapes, at, got, want, rel)
				}
			}
			got, want := lm.MTTFHours(), refMTTFHours(lm)
			if rel := math.Abs(got-want) / want; rel > tol {
				t.Fatalf("trial %d shapes %v: MTTF %.17g h, component-sum MTTF %.17g h (rel %.3g)",
					trial, shapes, got, want, rel)
			}
		}
	}
}

// refCumHazard is the cumulative hazard as the plain sum of every
// component's Weibull hazard (t/η)^β.
func refCumHazard(lm *LifetimeModel, tHours float64) float64 {
	var cum float64
	for i := 0; i < lm.Components(); i++ {
		_, _, shape, scale := lm.Component(i)
		cum += math.Pow(tHours/scale, shape)
	}
	return cum
}

// refHorizonHours is MTTFHours' integration horizon: three times the
// largest component scale.
func refHorizonHours(lm *LifetimeModel) float64 {
	var horizon float64
	for i := 0; i < lm.Components(); i++ {
		_, _, _, scale := lm.Component(i)
		horizon = math.Max(horizon, scale)
	}
	return 3 * horizon
}

// refMTTFHours is MTTFHours' trapezoid over refCumHazard.
func refMTTFHours(lm *LifetimeModel) float64 {
	const steps = 20000
	horizon := refHorizonHours(lm)
	dt := horizon / steps
	sum := 0.5
	for i := 1; i < steps; i++ {
		sum += math.Exp(-refCumHazard(lm, float64(i)*dt))
	}
	sum += 0.5 * math.Exp(-refCumHazard(lm, horizon))
	return sum * dt
}
