package fleet

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"ramp/internal/core"
	"ramp/internal/obs"
)

func TestSeedDeterminismAndSensitivity(t *testing.T) {
	a := multiCell()
	cfg := DefaultConfig(20_000, 9)
	r1 := runFleet(t, cfg, a)
	r2 := runFleet(t, cfg, a)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different reports")
	}
	cfg.Seed = 10
	r3 := runFleet(t, cfg, a)
	if reflect.DeepEqual(r1.Results[0].Survival, r3.Results[0].Survival) {
		t.Fatal("different seeds produced identical survival curves")
	}
}

// TestCheckpointDutyScalesLifetimes: under common random numbers a chip
// fails at the same intrinsic stress time under any duty cycle, so
// halving the duty exactly doubles every calendar statistic.
func TestCheckpointDutyScalesLifetimes(t *testing.T) {
	a := multiCell()
	cfg := DefaultConfig(20_000, 5)
	cfg.HorizonYears = 60 // keep the doubled lifetimes inside the curve
	cfg.Scenarios = []Scenario{
		NominalScenario(),
		{Name: "ckpt50", Duty: 0.5},
	}
	rep := runFleet(t, cfg, a)
	nom, ck := &rep.Results[0], &rep.Results[1]
	if d := math.Abs(ck.MeanYears-2*nom.MeanYears) / nom.MeanYears; d > 1e-12 {
		t.Errorf("duty 0.5 mean %.6f != 2 x nominal %.6f", ck.MeanYears, nom.MeanYears)
	}
	// Calendar survival at 2t under half duty equals nominal survival
	// at t: compare aligned bins (bin 2k+1 of ckpt covers twice the
	// years of nominal bin k).
	for k := 0; k < cfg.Bins/2; k++ {
		if ck.Survival[2*k+1] != nom.Survival[k] {
			t.Fatalf("S curves misaligned at bin %d: %v vs %v", k, ck.Survival[2*k+1], nom.Survival[k])
		}
	}
	if ck.Return7 >= nom.Return7 {
		t.Errorf("checkpointing did not reduce 7-year returns: %v >= %v", ck.Return7, nom.Return7)
	}
}

// TestSparesExtendLifetime: each spare strictly improves every summary
// statistic, and more spares never hurt.
func TestSparesExtendLifetime(t *testing.T) {
	a := multiCell()
	cfg := DefaultConfig(20_000, 6)
	cfg.Scenarios = []Scenario{
		NominalScenario(),
		{Name: "spare1", Duty: 1, Spares: 1},
		{Name: "spare2", Duty: 1, Spares: 2},
	}
	rep := runFleet(t, cfg, a)
	for i := 1; i < len(rep.Results); i++ {
		prev, cur := &rep.Results[i-1], &rep.Results[i]
		if cur.MeanYears <= prev.MeanYears {
			t.Errorf("%s mean %.3f <= %s mean %.3f", cur.Scenario, cur.MeanYears, prev.Scenario, prev.MeanYears)
		}
		if cur.Return11 >= prev.Return11 {
			t.Errorf("%s Return11 %.4f >= %s %.4f", cur.Scenario, cur.Return11, prev.Scenario, prev.Return11)
		}
	}
}

func TestSurvivalCurveShape(t *testing.T) {
	rep := runFleet(t, DefaultConfig(20_000, 2), multiCell())
	for _, sr := range rep.Results {
		prev := 1.0
		for k, s := range sr.Survival {
			if s < 0 || s > prev {
				t.Fatalf("survival not a monotone probability at bin %d: %v (prev %v)", k, s, prev)
			}
			prev = s
		}
		var mix float64
		for _, f := range sr.FailMix {
			mix += f
		}
		failed := 1 - sr.Survival[len(sr.Survival)-1]
		// Every failing chip has exactly one terminal mechanism; chips
		// surviving past the horizon still failed eventually in-model,
		// so the mix sums to 1 over all chips.
		if math.Abs(mix-1) > 1e-9 {
			t.Errorf("%s/%s: FailMix sums to %v, want 1 (failed-by-horizon %v)", sr.Policy, sr.Scenario, mix, failed)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	a := multiCell()
	good := DefaultConfig(100, 1)
	bad := []func(*Config){
		func(c *Config) { c.Chips = 0 },
		func(c *Config) { c.ShardSize = 0 },
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.Bins = 5000 },
		func(c *Config) { c.HorizonYears = 0 },
		func(c *Config) { c.Variation.StructSigma = 2 },
		func(c *Config) { c.Variation.LeakSigma = -0.1 },
		func(c *Config) { c.Scenarios = nil },
		func(c *Config) { c.Scenarios = []Scenario{{Name: "x", Duty: 0}} },
		func(c *Config) { c.Scenarios = []Scenario{{Name: "x", Duty: 1.5}} },
		func(c *Config) { c.Scenarios = []Scenario{{Name: "x", Duty: 1, Spares: 99}} },
		func(c *Config) { c.Shapes = core.WeibullShapes{} },
	}
	for i, mutate := range bad {
		cfg := good
		cfg.Scenarios = append([]Scenario(nil), good.Scenarios...)
		mutate(&cfg)
		if _, err := New(cfg, []Policy{{Name: "p", Assessment: a}}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("empty policy list accepted")
	}
	if _, err := New(good, []Policy{{Name: "empty"}}); err == nil {
		t.Error("assessment with no active components accepted")
	}
	nan := multiCell()
	nan.FIT[3][1] = math.NaN()
	if _, err := New(good, []Policy{{Name: "nan", Assessment: nan}}); err == nil {
		t.Error("assessment with a NaN FIT accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	eng, err := New(DefaultConfig(100_000, 1), []Policy{{Name: "p", Assessment: multiCell()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
}

// TestSimulateShardZeroAlloc proves the per-chip hot path allocates
// nothing: all scratch lives in shardState and the preallocated
// accumulators.
func TestSimulateShardZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(4096, 1)
	cfg.Scenarios = []Scenario{NominalScenario(), {Name: "repair", Duty: 0.9, Spares: 2}}
	eng, err := New(cfg, []Policy{{Name: "p", Assessment: multiCell()}})
	if err != nil {
		t.Fatal(err)
	}
	rows := len(eng.policies) * len(cfg.Scenarios)
	acc := make([]accum, rows)
	for r := range acc {
		acc[r].bins = make([]int64, cfg.Bins+1)
	}
	var st shardState
	allocs := testing.AllocsPerRun(10, func() {
		eng.simulateShard(&st, acc, 0, 512)
	})
	if allocs != 0 {
		t.Fatalf("simulateShard allocates %v per run, want 0", allocs)
	}
}

func TestInstrumentedRun(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	cfg := DefaultConfig(10_000, 4)
	cfg.ShardSize = 2048
	eng, err := New(cfg, []Policy{{Name: "p", Assessment: multiCell()}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := eng.Instrument(tr, reg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, inst) {
		t.Fatal("instrumentation changed results")
	}
	if got := reg.Counter(MetricChips).Value(); got != 10_000 {
		t.Errorf("%s = %d, want 10000", MetricChips, got)
	}
	if got := reg.Counter(MetricShards).Value(); got != 5 {
		t.Errorf("%s = %d, want 5", MetricShards, got)
	}
	if tr.Len() == 0 {
		t.Error("no spans recorded")
	}
}

func TestWriteTable(t *testing.T) {
	rep := runFleet(t, DefaultConfig(5_000, 1), multiCell())
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"Fleet Monte Carlo", "base", "nominal", "ret7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	rep.WriteTable(&buf2)
	if buf.String() != buf2.String() {
		t.Error("WriteTable is not deterministic")
	}
}
