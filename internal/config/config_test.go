package config

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBaseMatchesTable1(t *testing.T) {
	p := Base()
	if err := p.Validate(); err != nil {
		t.Fatalf("base invalid: %v", err)
	}
	if p.FreqHz != 4e9 || p.VddV != 1.0 {
		t.Fatalf("base operating point %v Hz %v V", p.FreqHz, p.VddV)
	}
	if p.FetchWidth != 8 || p.RetireWidth != 8 {
		t.Fatalf("fetch/retire %d/%d", p.FetchWidth, p.RetireWidth)
	}
	if p.WindowSize != 128 || p.IntRegs != 192 || p.FPRegs != 192 {
		t.Fatalf("window/regs %d/%d/%d", p.WindowSize, p.IntRegs, p.FPRegs)
	}
	if p.IntALUs != 6 || p.FPUs != 4 || p.AGUs != 2 {
		t.Fatalf("FUs %d/%d/%d", p.IntALUs, p.FPUs, p.AGUs)
	}
	if p.IntAddLat != 1 || p.IntMulLat != 7 || p.IntDivLat != 12 {
		t.Fatalf("int latencies")
	}
	if p.FPLat != 4 || p.FPDivLat != 12 {
		t.Fatalf("fp latencies")
	}
	if p.MemQueueSize != 32 || p.BPredBytes != 2048 || p.RASEntries != 32 {
		t.Fatalf("memq/bpred/ras")
	}
	if p.L1D.SizeBytes != 64<<10 || p.L1D.Assoc != 2 || p.L1D.Ports != 2 || p.L1D.MSHRs != 12 {
		t.Fatalf("L1D config %+v", p.L1D)
	}
	if p.L1I.SizeBytes != 32<<10 || p.L2.SizeBytes != 1<<20 || p.L2.Assoc != 4 {
		t.Fatalf("L1I/L2 config")
	}
	// Off-chip latencies are wall-clock: 20 and 102 cycles at 4 GHz.
	if math.Abs(p.L2.HitLatencySec*4e9-20) > 1e-9 {
		t.Fatalf("L2 latency = %v cycles at 4GHz", p.L2.HitLatencySec*4e9)
	}
	if math.Abs(p.MemLatencySec*4e9-102) > 1e-9 {
		t.Fatalf("memory latency = %v cycles at 4GHz", p.MemLatencySec*4e9)
	}
}

func TestIssueWidth(t *testing.T) {
	p := Base()
	if p.IssueWidth() != 12 {
		t.Fatalf("issue width = %d, want 6+4+2", p.IssueWidth())
	}
	p.IntALUs, p.FPUs = 2, 1
	if p.IssueWidth() != 5 {
		t.Fatalf("adapted issue width = %d, want 5", p.IssueWidth())
	}
}

func TestCacheSets(t *testing.T) {
	c := Base().L1D
	if c.Sets() != 64<<10/(64*2) {
		t.Fatalf("L1D sets = %d", c.Sets())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mods := []func(*Proc){
		func(p *Proc) { p.FreqHz = 0 },
		func(p *Proc) { p.VddV = -1 },
		func(p *Proc) { p.FetchWidth = 0 },
		func(p *Proc) { p.WindowSize = 0 },
		func(p *Proc) { p.IntALUs = 0 },
		func(p *Proc) { p.IntRegs = 4 },
		func(p *Proc) { p.MemQueueSize = 0 },
		func(p *Proc) { p.L1D.SizeBytes = 0 },
	}
	for i, mod := range mods {
		p := Base()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestVoltageForFreqAnchor(t *testing.T) {
	// The DVS curve is anchored at the base point: 4 GHz -> 1.0 V.
	if v := VoltageForFreq(4e9); math.Abs(v-1.0) > 1e-12 {
		t.Fatalf("V(4GHz) = %v, want 1.0", v)
	}
}

func TestVoltageForFreqMonotonicAndClamped(t *testing.T) {
	prev := 0.0
	for f := 1e9; f <= 8e9; f += 0.1e9 {
		v := VoltageForFreq(f)
		if v < prev {
			t.Fatalf("V(f) not monotone at %v", f)
		}
		if v < VMin || v > VMax {
			t.Fatalf("V(%v) = %v outside clamp", f, v)
		}
		prev = v
	}
	if VoltageForFreq(0.1e9) != VMin {
		t.Fatalf("low frequency should clamp to VMin")
	}
}

func TestDVSFrequencies(t *testing.T) {
	fs := DVSFrequencies(0.25e9)
	if fs[0] != MinFreqHz {
		t.Fatalf("first frequency %v", fs[0])
	}
	if fs[len(fs)-1] != MaxFreqHz {
		t.Fatalf("last frequency %v", fs[len(fs)-1])
	}
	if len(fs) != 11 {
		t.Fatalf("grid size %d, want 11", len(fs))
	}
	// Zero step falls back to the default.
	if len(DVSFrequencies(0)) != 11 {
		t.Fatalf("default grid broken")
	}
}

func TestArchConfigsMatchPaper(t *testing.T) {
	cfgs := ArchConfigs()
	// 6 window sizes x 3 FU settings = 18 configurations (Section 6.1).
	if len(cfgs) != 18 {
		t.Fatalf("got %d arch configs, want 18", len(cfgs))
	}
	base := Base()
	seen := map[string]bool{}
	var most, least Proc
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("config %s invalid: %v", c.Name, err)
		}
		if c.FreqHz != base.FreqHz || c.VddV != base.VddV {
			t.Errorf("config %s changed the operating point", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate config name %s", c.Name)
		}
		seen[c.Name] = true
		if c.WindowSize == 128 && c.IntALUs == 6 {
			most = c
		}
		if c.WindowSize == 16 && c.IntALUs == 2 {
			least = c
		}
	}
	if most.FPUs != 4 {
		t.Fatalf("most aggressive config missing (%+v)", most)
	}
	if least.FPUs != 1 {
		t.Fatalf("least aggressive config missing (%+v)", least)
	}
}

func TestWithOperatingPoint(t *testing.T) {
	p := Base().WithOperatingPoint(5e9)
	if p.FreqHz != 5e9 {
		t.Fatalf("freq not applied")
	}
	if p.VddV != VoltageForFreq(5e9) {
		t.Fatalf("voltage not from curve")
	}
	// Re-applying should not stack name suffixes.
	p2 := p.WithOperatingPoint(3e9)
	if p2.Name != "base@3.00GHz" {
		t.Fatalf("name = %q", p2.Name)
	}
}

func TestOnFractions(t *testing.T) {
	base := Base()
	of := OnFractions(base, base)
	if of.Window != 1 || of.IntALU != 1 || of.FPU != 1 {
		t.Fatalf("base on-fractions not 1: %+v", of)
	}
	small := base
	small.WindowSize = 32
	small.IntALUs = 2
	small.FPUs = 1
	of = OnFractions(small, base)
	if of.Window != 0.25 {
		t.Fatalf("window fraction = %v", of.Window)
	}
	if math.Abs(of.IntALU-2.0/6.0) > 1e-12 {
		t.Fatalf("ALU fraction = %v", of.IntALU)
	}
	if of.FPU != 0.25 {
		t.Fatalf("FPU fraction = %v", of.FPU)
	}
}

// Property: on-fractions are always in (0, 1] for valid adaptations.
func TestOnFractionsProperty(t *testing.T) {
	base := Base()
	f := func(w, a, fp uint8) bool {
		p := base
		p.WindowSize = 1 + int(w)%base.WindowSize
		p.IntALUs = 1 + int(a)%base.IntALUs
		p.FPUs = 1 + int(fp)%base.FPUs
		of := OnFractions(p, base)
		for _, x := range []float64{of.Window, of.IntALU, of.FPU, of.IntRF, of.FPRF, of.LSQ} {
			if x <= 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
