package dtm

import (
	"testing"

	"ramp/internal/config"
	"ramp/internal/exp"
	"ramp/internal/trace"
)

func quickOracle() *Oracle {
	o := NewOracle(exp.NewEnv(exp.QuickOptions()))
	o.FreqStepHz = 0.5e9
	return o
}

func TestSelectRespectsTmax(t *testing.T) {
	o := quickOracle()
	sweep, err := o.Sweep(trace.Bzip2())
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweep.Select(355)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Feasible {
		t.Fatal("355K should be attainable for bzip2 at some frequency")
	}
	if c.MaxTempK > 355 {
		t.Fatalf("selected point peaks at %v K > 355 K", c.MaxTempK)
	}
}

func TestHigherTmaxAllowsHigherFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Equake())
	if err != nil {
		t.Fatal(err)
	}
	prevF := 0.0
	for _, tmax := range []float64{335, 350, 365, 400} {
		c, err := sweep.Select(tmax)
		if err != nil {
			t.Fatal(err)
		}
		if c.Proc.FreqHz < prevF {
			t.Fatalf("frequency not monotone in Tmax at %vK", tmax)
		}
		prevF = c.Proc.FreqHz
	}
}

func TestImpossibleTmaxFallsBackToCoolest(t *testing.T) {
	o := quickOracle()
	sweep, err := o.Sweep(trace.MP3dec())
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweep.Select(300) // below ambient: unattainable
	if err != nil {
		t.Fatal(err)
	}
	if c.Feasible {
		t.Fatal("sub-ambient Tmax reported feasible")
	}
	if c.Proc.FreqHz != config.MinFreqHz {
		t.Fatalf("fallback %v GHz, want the coolest %v", c.Proc.FreqHz/1e9, config.MinFreqHz/1e9)
	}
}

func TestGenerousTmaxUnlocksPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	o := quickOracle()
	sweep, err := o.Sweep(trace.Twolf())
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweep.Select(450)
	if err != nil {
		t.Fatal(err)
	}
	if c.Proc.FreqHz != config.MaxFreqHz {
		t.Fatalf("unconstrained DTM should max the clock, got %v GHz", c.Proc.FreqHz/1e9)
	}
	if c.RelPerf <= 1 {
		t.Fatalf("max clock should beat base: %v", c.RelPerf)
	}
}

func TestSelectEmptySweepErrors(t *testing.T) {
	s := &Sweep{}
	if _, err := s.Select(360); err == nil {
		t.Fatal("empty sweep did not error")
	}
}

func TestBestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptation sweep; skipped in -short (race lane)")
	}
	s, err := quickOracle().Sweep(trace.Art())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Select(350)
	if err != nil {
		t.Fatal(err)
	}
	if c.Result.App != "art" {
		t.Fatalf("choice for %s", c.Result.App)
	}
}
