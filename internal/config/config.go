// Package config defines the processor, technology and adaptation
// configuration used throughout the reproduction.
//
// The base non-adaptive processor is the paper's Table 1: a 65 nm, 4 GHz,
// 1.0 V, 8-wide out-of-order core resembling the MIPS R10000 with a
// unified 128-entry instruction window, 192+192 physical registers, 6
// integer ALUs, 4 FPUs and 2 address-generation units, a 64 KB L1D, 32 KB
// L1I, 1 MB off-chip L2 and 102-cycle (at 4 GHz) main memory.
package config

import (
	"fmt"
	"math"
)

// Tech holds the 65 nm technology-level parameters (Table 1 plus the
// leakage model of Section 6.3).
type Tech struct {
	ProcessNM float64 // feature size, nm

	VddNominal float64 // nominal supply voltage, V
	BaseFreqHz float64 // base clock, Hz

	// Leakage: density at TLeakRef with aggressive control (0.5 W/mm^2 at
	// 383 K, from industry per the paper), scaled with temperature as
	// P(T) = P(Tref) * e^(Beta*(T-Tref)) with Beta = 0.017 (Heo et al.).
	LeakageWPerMM2 float64
	TLeakRefK      float64
	LeakageBeta    float64

	AmbientK float64 // ambient (package inlet) temperature, K
}

// Tech65nm returns the paper's 65 nm technology point.
func Tech65nm() Tech {
	return Tech{
		ProcessNM:      65,
		VddNominal:     1.0,
		BaseFreqHz:     4.0e9,
		LeakageWPerMM2: 0.5,
		TLeakRefK:      383,
		LeakageBeta:    0.017,
		AmbientK:       313, // 40 C in-chassis ambient at the sink
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	Ports     int
	MSHRs     int
	// HitLatencyCycles applies to on-chip caches and is in core cycles
	// (it scales with the clock). HitLatencySec applies to off-chip
	// structures and is fixed wall-clock time.
	HitLatencyCycles int
	HitLatencySec    float64
}

// Sets returns the number of sets in the cache.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// Proc is a complete processor configuration: microarchitecture plus
// operating point (frequency/voltage). The zero value is not usable; start
// from Base().
type Proc struct {
	Name string

	// Operating point.
	FreqHz float64
	VddV   float64

	// Front end.
	FetchWidth   int
	RetireWidth  int
	FrontLatency int // fetch-to-rename pipeline depth, cycles

	// Window and registers. The instruction window integrates the issue
	// queue and reorder buffer (Section 6.1); the register file is
	// separate.
	WindowSize int
	IntRegs    int
	FPRegs     int

	// Functional units. Issue width equals the number of active
	// functional units (Section 6.1), so it is derived, not stored.
	IntALUs int
	FPUs    int
	AGUs    int

	// Latencies (cycles). FP divide is not pipelined.
	IntAddLat, IntMulLat, IntDivLat int
	FPLat, FPDivLat                 int

	MemQueueSize int

	// Branch prediction.
	BPredBytes int // bimodal agree predictor storage
	RASEntries int

	// Memory hierarchy.
	L1D, L1I, L2 CacheConfig
	// Main memory: fixed wall-clock latency (102 cycles at 4 GHz) and
	// bandwidth is abstracted away (the paper's 16B/cycle 4-way
	// interleaved memory is not a bottleneck for our traces).
	MemLatencySec float64
}

// Base returns the paper's Table 1 base non-adaptive processor at the
// 65 nm technology point.
func Base() Proc {
	t := Tech65nm()
	cyc := 1 / t.BaseFreqHz
	return Proc{
		Name:         "base",
		FreqHz:       t.BaseFreqHz,
		VddV:         t.VddNominal,
		FetchWidth:   8,
		RetireWidth:  8,
		FrontLatency: 3,
		WindowSize:   128,
		IntRegs:      192,
		FPRegs:       192,
		IntALUs:      6,
		FPUs:         4,
		AGUs:         2,
		IntAddLat:    1,
		IntMulLat:    7,
		IntDivLat:    12,
		FPLat:        4,
		FPDivLat:     12,
		MemQueueSize: 32,
		BPredBytes:   2048,
		RASEntries:   32,
		L1D: CacheConfig{
			SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64,
			Ports: 2, MSHRs: 12, HitLatencyCycles: 2,
		},
		L1I: CacheConfig{
			SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64,
			Ports: 1, MSHRs: 4, HitLatencyCycles: 1,
		},
		L2: CacheConfig{
			SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64,
			Ports: 1, MSHRs: 12,
			// Off-chip: 20 cycles at 4 GHz is fixed wall-clock time.
			HitLatencySec: 20 * cyc,
		},
		MemLatencySec: 102 * cyc,
	}
}

// IssueWidth returns the processor's issue width: the sum of all active
// functional units (Section 6.1).
func (p Proc) IssueWidth() int { return p.IntALUs + p.FPUs + p.AGUs }

// Validate checks the configuration for internal consistency.
func (p Proc) Validate() error {
	switch {
	case p.FreqHz <= 0:
		return fmt.Errorf("config: non-positive frequency %v", p.FreqHz)
	case p.VddV <= 0:
		return fmt.Errorf("config: non-positive Vdd %v", p.VddV)
	case p.FetchWidth <= 0 || p.RetireWidth <= 0:
		return fmt.Errorf("config: non-positive fetch/retire width")
	case p.WindowSize <= 0:
		return fmt.Errorf("config: non-positive window size")
	case p.IntALUs <= 0 || p.FPUs <= 0 || p.AGUs <= 0:
		return fmt.Errorf("config: each FU class needs at least one unit")
	case p.IntRegs < p.WindowSize/2 || p.FPRegs < p.WindowSize/2:
		return fmt.Errorf("config: too few physical registers for window %d", p.WindowSize)
	case p.MemQueueSize <= 0:
		return fmt.Errorf("config: non-positive memory queue size")
	case p.L1D.SizeBytes <= 0 || p.L1I.SizeBytes <= 0 || p.L2.SizeBytes <= 0:
		return fmt.Errorf("config: non-positive cache size")
	}
	return nil
}

// WithArch returns a copy of p with a microarchitectural adaptation
// applied (Section 6.1): the instruction window size and the integer
// ALU and FPU counts, where 0 keeps p's value. A resized window keeps
// enough registers to rename it, with the base 1.5x cushion, and a
// memory queue no longer than it; neither grows past p's. The name is
// left to the caller.
func (p Proc) WithArch(window, alus, fpus int) Proc {
	if window != 0 {
		p.WindowSize = window
		p.IntRegs = min(p.IntRegs, window+window/2)
		p.FPRegs = min(p.FPRegs, window+window/2)
		p.MemQueueSize = min(p.MemQueueSize, window)
	}
	if alus != 0 {
		p.IntALUs = alus
	}
	if fpus != 0 {
		p.FPUs = fpus
	}
	return p
}

// WithOperatingPoint returns a copy of p running at the given frequency
// with the voltage the DVS curve requires for it.
func (p Proc) WithOperatingPoint(freqHz float64) Proc {
	q := p
	q.FreqHz = freqHz
	q.VddV = VoltageForFreq(freqHz)
	q.Name = fmt.Sprintf("%s@%.2fGHz", baseName(p.Name), freqHz/1e9)
	return q
}

func baseName(n string) string {
	for i := 0; i < len(n); i++ {
		if n[i] == '@' {
			return n[:i]
		}
	}
	return n
}

// DVS parameters: the voltage-frequency relationship is extrapolated from
// the published Intel Pentium-M (Centrino) operating points, normalised to
// the base 4 GHz @ 1.0 V point (Section 6.1). The Pentium-M ladder's
// proportional fit is V/Vbase = 0.43 + 0.57*(f/fbase), but that 130 nm
// part spans 0.96-1.48 V; a 65 nm part's usable voltage window is much
// narrower, so the extrapolation compresses the slope while keeping the
// 4 GHz @ 1.0 V anchor: V/Vbase = 0.65 + 0.35*(f/fbase)
// (0.87 V @ 2.5 GHz ... 1.09 V @ 5 GHz).
const (
	dvsVIntercept = 0.65
	dvsVSlope     = 0.35

	// MinFreqHz and MaxFreqHz bound the DVS range explored for DRM
	// (Section 6.1: 2.5 GHz to 5.0 GHz).
	MinFreqHz = 2.5e9
	MaxFreqHz = 5.0e9

	// VMin and VMax clamp the extrapolated voltage to a physically
	// plausible 65 nm range.
	VMin = 0.70
	VMax = 1.20
)

// VoltageForFreq returns the supply voltage that supports frequency f,
// per the Pentium-M-extrapolated DVS curve.
func VoltageForFreq(freqHz float64) float64 {
	base := Tech65nm()
	v := base.VddNominal * (dvsVIntercept + dvsVSlope*freqHz/base.BaseFreqHz)
	return math.Min(VMax, math.Max(VMin, v))
}

// DefaultFreqStepHz is the DVS grid step every oracle, controller,
// server and command uses unless told otherwise: the paper-like fine
// sweep of 21 frequencies.
const DefaultFreqStepHz = 0.125e9

// DVSFrequencies returns the frequency grid explored for DRM and DTM:
// 2.5 GHz to 5.0 GHz in stepHz increments (DefaultFreqStepHz for a step
// ≤ 0; 0.25e9 gives a faster, coarser sweep).
func DVSFrequencies(stepHz float64) []float64 {
	if stepHz <= 0 {
		stepHz = DefaultFreqStepHz
	}
	var out []float64
	for f := MinFreqHz; f <= MaxFreqHz+1; f += stepHz {
		out = append(out, f)
	}
	return out
}

// ArchConfigs returns the paper's 18 microarchitectural adaptation
// configurations (Section 6.1): combinations of instruction window size
// and functional-unit counts ranging from the full 128-entry, 6-ALU,
// 4-FPU core down to a 16-entry, 2-ALU, 1-FPU core. All run at the base
// voltage and frequency. Register files and memory queue scale with the
// window so that no configuration is trivially register-starved.
func ArchConfigs() []Proc {
	base := Base()
	windows := []int{128, 96, 64, 48, 32, 16}
	fus := []struct{ alus, fpus int }{{6, 4}, {4, 2}, {2, 1}}
	var out []Proc
	for _, w := range windows {
		for _, fu := range fus {
			p := base.WithArch(w, fu.alus, fu.fpus)
			p.Name = fmt.Sprintf("w%d-a%d-f%d", w, fu.alus, fu.fpus)
			out = append(out, p)
		}
	}
	return out
}

// OnFraction returns, for each structure class that the microarchitectural
// adaptations can power down, the powered-on fraction of the structure
// relative to the base configuration. Powered-down area contributes no
// electromigration or TDDB failures (Section 6.1) and no power.
type OnFraction struct {
	Window float64
	IntALU float64
	FPU    float64
	IntRF  float64
	FPRF   float64
	LSQ    float64
}

// OnFractions computes the powered-on fractions of p relative to base.
func OnFractions(p, base Proc) OnFraction {
	frac := func(a, b int) float64 {
		if b == 0 {
			return 1
		}
		f := float64(a) / float64(b)
		if f > 1 {
			f = 1
		}
		return f
	}
	return OnFraction{
		Window: frac(p.WindowSize, base.WindowSize),
		IntALU: frac(p.IntALUs, base.IntALUs),
		FPU:    frac(p.FPUs, base.FPUs),
		IntRF:  frac(p.IntRegs, base.IntRegs),
		FPRF:   frac(p.FPRegs, base.FPRegs),
		LSQ:    frac(p.MemQueueSize, base.MemQueueSize),
	}
}
