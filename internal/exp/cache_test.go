package exp

import (
	"math"
	"testing"

	"ramp/internal/trace"
)

// sameAggregates compares every scalar aggregate bitwise (==, no
// epsilon): the cache must return exactly what a cold run computes.
func sameAggregates(t *testing.T, label string, a, b Result) {
	t.Helper()
	pairs := [][2]float64{
		{a.IPC, b.IPC},
		{a.BIPS, b.BIPS},
		{a.AvgW, b.AvgW},
		{a.MaxTempK, b.MaxTempK},
		{a.AvgTempK, b.AvgTempK},
		{a.SinkK, b.SinkK},
		{a.Assessment.TotalFIT, b.Assessment.TotalFIT},
	}
	for i, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("%s: aggregate %d differs: %v vs %v", label, i, p[0], p[1])
		}
	}
	if a.Assessment.FIT != b.Assessment.FIT {
		t.Fatalf("%s: per-structure/mechanism FIT matrix differs", label)
	}
}

func TestCacheHitBitwiseIdenticalToColdRun(t *testing.T) {
	app := trace.Twolf()
	coldEnv := quickEnv()
	qual := coldEnv.Qualification(400)
	cold, err := coldEnv.Evaluate(app, coldEnv.Base, qual)
	if err != nil {
		t.Fatal(err)
	}

	env := quickEnv()
	if _, err := env.Evaluate(app, env.Base, qual); err != nil {
		t.Fatal(err)
	}
	hit, err := env.Evaluate(app, env.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	if env.CachedEvaluations() != 1 {
		t.Fatalf("cached evaluations = %d, want 1", env.CachedEvaluations())
	}
	sameAggregates(t, "same qual", cold, hit)
}

func TestCacheHitRequalifiesBitwiseIdentically(t *testing.T) {
	// A cache hit at a different T_qual must equal a cold run at that
	// T_qual: both apply the T_qual's budget to the same exposure.
	app := trace.Gzip()
	coldEnv := quickEnv()
	cold, err := coldEnv.Evaluate(app, coldEnv.Base, coldEnv.Qualification(345))
	if err != nil {
		t.Fatal(err)
	}

	env := quickEnv()
	if _, err := env.Evaluate(app, env.Base, env.Qualification(400)); err != nil {
		t.Fatal(err)
	}
	hit, err := env.Evaluate(app, env.Base, env.Qualification(345))
	if err != nil {
		t.Fatal(err)
	}
	if env.CachedEvaluations() != 1 {
		t.Fatalf("cached evaluations = %d, want 1", env.CachedEvaluations())
	}
	sameAggregates(t, "cross qual", cold, hit)
}

func TestCacheKeyIgnoresCosmeticName(t *testing.T) {
	// The base machine reappears in DVS/ArchDVS candidate lists under a
	// grid-point name; the identical configuration must not simulate
	// twice.
	env := quickEnv()
	qual := env.Qualification(400)
	app := trace.Bzip2()
	r1, err := env.Evaluate(app, env.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	renamed := env.Base.WithOperatingPoint(env.Base.FreqHz)
	if renamed.VddV != env.Base.VddV {
		t.Fatalf("operating point changed voltage: %v vs %v", renamed.VddV, env.Base.VddV)
	}
	r2, err := env.Evaluate(app, renamed, qual)
	if err != nil {
		t.Fatal(err)
	}
	if env.CachedEvaluations() != 1 {
		t.Fatalf("cached evaluations = %d, want 1 (rename must not re-simulate)", env.CachedEvaluations())
	}
	if r2.Proc.Name != renamed.Name {
		t.Fatalf("hit reports stored name %q, want caller's %q", r2.Proc.Name, renamed.Name)
	}
	sameAggregates(t, "renamed config", r1, r2)
}

func TestRequalifyForeignResultErrors(t *testing.T) {
	env := quickEnv()
	r := Result{App: "gzip", Proc: env.Base} // no rows, never evaluated here
	if _, err := env.Requalify(r, env.Qualification(400)); err == nil {
		t.Fatal("Requalify of a rowless foreign result should error")
	}
}

func TestAdaptiveFixedPointPreservesResults(t *testing.T) {
	// The default tolerance may only perturb results far below reported
	// precision; compare against the exact fixed-iteration run.
	exact := QuickOptions()
	exact.TolK = 0
	exactEnv := NewEnv(exact)
	adaptEnv := quickEnv() // default TolK
	app := trace.MP3dec()
	qual := exactEnv.Qualification(400)
	re, err := exactEnv.Evaluate(app, exactEnv.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := adaptEnv.Evaluate(app, adaptEnv.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(re.MaxTempK - ra.MaxTempK); d > 10*DefaultTolK {
		t.Fatalf("adaptive exit moved max temperature by %v K", d)
	}
	if re.FIT() == 0 {
		t.Fatal("zero FIT")
	}
	if rel := math.Abs(re.FIT()-ra.FIT()) / re.FIT(); rel > 1e-6 {
		t.Fatalf("adaptive exit moved FIT by %v relative", rel)
	}
	if re.BIPS != ra.BIPS {
		t.Fatal("fixed point must not affect performance")
	}
}

func TestEvaluateAllEmptyAndDuplicates(t *testing.T) {
	env := quickEnv()
	if res, err := env.EvaluateAll(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	qual := env.Qualification(400)
	app := trace.Twolf()
	jobs := []EvalJob{
		{App: app, Proc: env.Base, Qual: qual},
		{App: app, Proc: env.Base, Qual: qual},
		{App: app, Proc: env.Base, Qual: qual},
		{App: app, Proc: env.Base.WithOperatingPoint(3e9), Qual: qual},
	}
	res, err := env.EvaluateAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if env.CachedEvaluations() != 2 {
		t.Fatalf("cached evaluations = %d, want 2 (duplicates must share)", env.CachedEvaluations())
	}
	sameAggregates(t, "duplicate jobs", res[0], res[1])
	sameAggregates(t, "duplicate jobs", res[0], res[2])
	if res[3].Proc.FreqHz != 3e9 {
		t.Fatalf("job order broken: %v", res[3].Proc.Name)
	}
}
