package exp

import (
	"bytes"
	"testing"

	"ramp/internal/obs"
	"ramp/internal/trace"
)

// TestInstrumentedEvaluateIdentical proves instrumentation is purely
// observational: an instrumented environment produces the same Result
// as an uninstrumented one, while recording spans and metrics.
func TestInstrumentedEvaluateIdentical(t *testing.T) {
	app := trace.MP3dec()

	plainEnv := NewEnv(QuickOptions())
	want, err := plainEnv.Evaluate(app, plainEnv.Base, plainEnv.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	env := NewEnv(QuickOptions()).Instrument(tr, reg)
	got, err := env.Evaluate(app, env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}

	if got.Assessment != want.Assessment {
		t.Errorf("instrumented assessment diverges:\nplain: %+v\ninstr: %+v", want.Assessment, got.Assessment)
	}
	if got.IPC != want.IPC || got.BIPS != want.BIPS || got.AvgW != want.AvgW ||
		got.MaxTempK != want.MaxTempK || got.AvgTempK != want.AvgTempK || got.SinkK != want.SinkK {
		t.Errorf("instrumented scalars diverge:\nplain: %+v\ninstr: %+v", want, got)
	}

	// Spans: one evaluation, warmup, per-epoch sim spans, per-pass
	// fixed-point spans, assessment.
	names := map[string]int{}
	for _, ev := range tr.Events() {
		names[ev.Name]++
	}
	opts := QuickOptions()
	wantSpans := map[string]int{
		"exp.evaluate":     1,
		"sim.warmup":       1,
		"sim.epoch":        opts.Epochs,
		"thermal.sinkpass": opts.SinkPasses,
		"exp.fixedpoint":   opts.Epochs * opts.SinkPasses,
		"ramp.assess":      1,
	}
	for name, want := range wantSpans {
		if names[name] != want {
			t.Errorf("span %q count = %d, want %d (all: %v)", name, names[name], want, names)
		}
	}

	// The exported trace must satisfy the Chrome schema contract.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("evaluation trace invalid: %v", err)
	}

	// Metrics: counts must match the run shape.
	if got := reg.Counter(MetricEpochs).Value(); got != int64(opts.Epochs) {
		t.Errorf("epochs counter = %d, want %d", got, opts.Epochs)
	}
	if got := reg.Counter(MetricEvaluations).Value(); got != 1 {
		t.Errorf("evaluations counter = %d, want 1", got)
	}
	if got := reg.Histogram(MetricFixedpointIter).Count(); got != int64(opts.Epochs*opts.SinkPasses) {
		t.Errorf("fixed-point histogram count = %d, want %d", got, opts.Epochs*opts.SinkPasses)
	}
	if reg.Histogram(MetricFixedpointIter).Sum() <= 0 {
		t.Error("fixed-point histogram recorded no iterations")
	}
	if reg.Counter(MetricSimRetired).Value() <= 0 || reg.Counter(MetricSimCycles).Value() <= 0 {
		t.Error("sim counters empty")
	}
	if got, want := reg.Counter(MetricThermalSolves).Value(), reg.Histogram(MetricFixedpointIter).Sum(); got != want {
		t.Errorf("thermal solves = %d, want the fixed-point iterations %d (one solve each)", got, want)
	}
	if reg.Histogram(MetricEvaluateUS).Count() != 1 {
		t.Error("evaluate latency histogram not recorded")
	}
	for _, name := range []string{
		"core_fit_compute_ns_em", "core_fit_compute_ns_sm",
		"core_fit_compute_ns_tddb", "core_fit_compute_ns_tc",
	} {
		if reg.Counter(name).Value() <= 0 {
			t.Errorf("%s recorded no time", name)
		}
	}
}

func TestCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	env := NewEnv(QuickOptions()).Instrument(nil, reg)
	app := trace.Twolf()
	qual := env.Qualification(400)
	if _, err := env.Evaluate(app, env.Base, qual); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Evaluate(app, env.Base, qual); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := reg.Gauge(MetricCacheEntries).Value(); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
}

// TestUninstrumentedEnvRecordsNothing pins the default: a plain NewEnv
// must not require Instrument and must not record anywhere.
func TestUninstrumentedEnvRecordsNothing(t *testing.T) {
	env := NewEnv(QuickOptions())
	if env.Trace != nil || env.Metrics != nil {
		t.Fatal("fresh env unexpectedly instrumented")
	}
	if _, err := env.Evaluate(trace.Twolf(), env.Base, env.Qualification(400)); err != nil {
		t.Fatal(err)
	}
}
