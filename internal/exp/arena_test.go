package exp

import (
	"context"
	"reflect"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/trace"
)

// TestArenaReuseBitIdentical checks the arena's core promise: an arena
// that has already evaluated other points (dirty core, warm generators,
// recycled epoch rows) produces Results bit-identical to a fresh
// arena's. Distinct procs defeat the evaluation cache, so every
// Evaluate below really runs the pipeline.
func TestArenaReuseBitIdentical(t *testing.T) {
	warm := quickEnv()
	qual := warm.Qualification(360)
	// Dirty the pooled arenas with evaluations of other apps and
	// configurations.
	for _, app := range []trace.Profile{trace.Twolf(), trace.Gzip()} {
		if _, err := warm.Evaluate(app, warm.Base, qual); err != nil {
			t.Fatal(err)
		}
	}
	slow := warm.Base.WithOperatingPoint(3.5e9)
	fresh := quickEnv()
	for _, app := range trace.Apps() {
		want, err := fresh.evaluate(context.Background(), app, slow, &evalArena{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Assessment, err = fresh.Requalify(want, qual); err != nil {
			t.Fatal(err)
		}
		got, err := warm.Evaluate(app, slow, qual)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: warm-arena result diverged from a fresh arena's:\n got %+v\nwant %+v",
				app.Name, got, want)
		}
	}
}

// TestCachedEpochRowsSurviveArenaReuse pins the aliasing contract of the
// arena: a cached Result's epoch rows are a compact copy the cache owns,
// so later evaluations that recycle the arena's scratch rows must not
// disturb them.
func TestCachedEpochRowsSurviveArenaReuse(t *testing.T) {
	env := quickEnv()
	qual := env.Qualification(370)
	first, err := env.Evaluate(trace.Gzip(), env.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]EpochRow(nil), first.Epochs...)

	// Recycle the arena through every other profile and a second config.
	for _, app := range trace.Apps() {
		if _, err := env.Evaluate(app, env.Base.WithOperatingPoint(3e9), qual); err != nil {
			t.Fatal(err)
		}
	}

	again, err := env.Evaluate(trace.Gzip(), env.Base, qual) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Epochs, snapshot) {
		t.Fatal("cached epoch rows changed after the arena was reused for other evaluations")
	}
}

// TestRequalifyDoesNotMutateCachedRows enforces the read-only contract
// on cached Result.Epochs: requalifying — a full Result and one stripped
// of its rows — must leave the rows untouched.
func TestRequalifyDoesNotMutateCachedRows(t *testing.T) {
	env := quickEnv()
	res, err := env.Evaluate(trace.Bzip2(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]EpochRow(nil), res.Epochs...)

	for _, tq := range []float64{325, 345, 370, 400} {
		if _, err := env.Requalify(res, env.Qualification(tq)); err != nil {
			t.Fatal(err)
		}
	}
	// Stripped result: Requalify needs only the exposure.
	stripped := res
	stripped.Epochs = nil
	if _, err := env.Requalify(stripped, env.Qualification(345)); err != nil {
		t.Fatal(err)
	}

	again, err := env.Evaluate(trace.Bzip2(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Epochs, snapshot) {
		t.Fatal("Requalify mutated cached epoch rows")
	}
	if !reflect.DeepEqual(res.Epochs, snapshot) {
		t.Fatal("Requalify mutated the caller's epoch rows")
	}
}

// TestEpochFixedPointZeroAlloc is the allocation budget for the per-epoch
// power/thermal fixed point: the Env-owned scratch state must make
// EpochConditions (and the epochFixedPoint under it) allocation-free,
// since reactive controllers call it every control epoch.
func TestEpochFixedPointZeroAlloc(t *testing.T) {
	env := quickEnv()
	var activity [floorplan.NumStructures]float64
	for i := range activity {
		activity[i] = 0.3
	}
	on := power.Ones()
	if allocs := testing.AllocsPerRun(100, func() {
		env.EpochConditions(activity, on, env.Base, 330)
	}); allocs != 0 {
		t.Fatalf("EpochConditions allocated %.0f objects/op, want 0", allocs)
	}
}

// TestArenaEpochRowsZeroed checks that recycled scratch rows come back
// zeroed — a stale Sim or TempK from a previous evaluation must never
// leak into a new one.
func TestArenaEpochRowsZeroed(t *testing.T) {
	a := &evalArena{}
	rows := a.epochRows(4)
	rows[2].TotalW = 99
	rows = a.epochRows(4)
	var zero EpochRow
	for i, r := range rows {
		if r != zero {
			t.Fatalf("recycled row %d not zeroed: %+v", i, r)
		}
	}
}
