// Package power is an architecture-level power model in the spirit of
// Wattch (the paper's power simulator), extended with the paper's leakage
// model (Section 6.3).
//
// Dynamic power per structure follows the activity-based CV²f model with
// aggressive clock gating: an idle structure still draws 10% of its
// maximum dynamic power, exactly as the paper configures Wattch. Leakage
// power is area-based — 0.5 W/mm² at 383 K for the 65 nm process, from
// industry data — and scales exponentially with temperature,
// P(T) = P(Tref)·e^(β(T−Tref)) with β = 0.017 (Heo et al.), which is the
// feedback loop that couples the thermal and power models. Structures
// powered down by microarchitectural adaptation draw no dynamic or
// leakage power in their gated fraction (Section 6.1).
package power

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/config"
	"ramp/internal/floorplan"
)

// Vector holds one value per floorplan structure (typically watts).
type Vector [floorplan.NumStructures]float64

// Sum returns the total across all structures.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// IdleFraction is the fraction of maximum dynamic power a clock-gated
// structure draws when idle (Wattch-style aggressive gating, Section 6.3).
const IdleFraction = 0.10

// Model computes per-structure dynamic and leakage power.
type Model struct {
	fp     *floorplan.Floorplan
	tech   config.Tech
	maxDyn Vector // W at (VddNominal, BaseFreqHz), fully active
}

// DefaultMaxDynamic returns the per-structure maximum dynamic power
// budget (watts at the base operating point, fully active). The budget
// was calibrated so the nine-application suite lands near Table 2's base
// power column; densities are highest for the instruction window, ALUs
// and FPUs, as in Wattch-era cores.
func DefaultMaxDynamic() Vector {
	var v Vector
	v[floorplan.Fetch] = 6.75
	v[floorplan.BPred] = 2.4
	v[floorplan.Window] = 12.0
	v[floorplan.IntRF] = 6.75
	v[floorplan.FPRF] = 5.4
	v[floorplan.IntALU] = 9.45
	v[floorplan.AGU] = 4.05
	v[floorplan.FPU] = 10.8
	v[floorplan.LSQ] = 4.7
	v[floorplan.L1I] = 6.1
	v[floorplan.L1D] = 10.1
	return v
}

// NewModel builds a power model over the given floorplan and technology
// with the default dynamic budget.
func NewModel(fp *floorplan.Floorplan, tech config.Tech) *Model {
	return NewModelWithBudget(fp, tech, DefaultMaxDynamic())
}

// NewModelWithBudget builds a power model with an explicit per-structure
// maximum dynamic power budget.
func NewModelWithBudget(fp *floorplan.Floorplan, tech config.Tech, maxDyn Vector) *Model {
	return &Model{fp: fp, tech: tech, maxDyn: maxDyn}
}

// Dynamic returns structure s's dynamic power (W) at the given activity
// factor, operating point, and powered-on fraction.
//
//ramp:hot
func (m *Model) Dynamic(s floorplan.Structure, activity, vddV, freqHz, onFrac float64) float64 {
	if activity < 0 || activity > 1 {
		panic(fmt.Sprintf("power: activity %v out of [0,1] for %v", activity, s))
	}
	vr := vddV / m.tech.VddNominal
	fr := freqHz / m.tech.BaseFreqHz
	w := m.maxDyn[s] * (IdleFraction + (1-IdleFraction)*activity) * vr * vr * fr * onFrac
	check.NonNegative("power.Model.Dynamic", w)
	return w
}

// Leakage returns structure s's leakage power (W) at temperature tempK
// with the given powered-on fraction. The exponential temperature model
// follows Section 6.3; leakage also scales with V²/V² relative to nominal
// to first order, which we fold in for DVS operating points.
//
//ramp:hot
func (m *Model) Leakage(s floorplan.Structure, tempK, vddV, onFrac float64) float64 {
	area := m.fp.AreaMM2(s)
	vr := vddV / m.tech.VddNominal
	scale := math.Exp(m.tech.LeakageBeta * (tempK - m.tech.TLeakRefK))
	w := m.tech.LeakageWPerMM2 * area * scale * vr * vr * onFrac
	// NonNegative also rejects +Inf: a runaway exponential here means a
	// diverged leakage-temperature fixed point upstream.
	check.NonNegative("power.Model.Leakage", w)
	return w
}

// ComputeInto writes per-structure total power (dynamic + leakage) for
// one interval into out.
//
// activity holds per-structure activity factors; temps per-structure
// temperatures (K); on per-structure powered-on fractions (use Ones() for
// the base machine). out and temps have NumStructures entries each: on a
// manycore die, per-block power and temperature live in flat
// n·NumStructures slices and each core's tile is a sub-slice, so the die
// evaluation loop calls this once per core per leakage iteration with no
// copies and no heap allocation.
//
//ramp:hot
func (m *Model) ComputeInto(out []float64, activity, on Vector, temps []float64, vddV, freqHz float64) {
	if len(out) != int(floorplan.NumStructures) || len(temps) != int(floorplan.NumStructures) {
		panic(fmt.Sprintf("power: ComputeInto needs %d-structure slices, got out=%d temps=%d",
			floorplan.NumStructures, len(out), len(temps)))
	}
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		out[s] = m.Dynamic(s, activity[s], vddV, freqHz, on[s]) +
			m.Leakage(s, temps[s], vddV, on[s])
	}
}

// Ones returns a Vector of all 1s (no power gating).
func Ones() Vector {
	var v Vector
	for i := range v {
		v[i] = 1
	}
	return v
}

// Uniform returns a Vector with every entry x.
func Uniform(x float64) Vector {
	var v Vector
	for i := range v {
		v[i] = x
	}
	return v
}

// OnFractions converts config-level powered-on fractions to a
// per-structure Vector. Structures the adaptations cannot gate stay at 1.
func OnFractions(p, base config.Proc) Vector {
	of := config.OnFractions(p, base)
	v := Ones()
	v[floorplan.Window] = of.Window
	v[floorplan.IntALU] = of.IntALU
	v[floorplan.FPU] = of.FPU
	v[floorplan.IntRF] = of.IntRF
	v[floorplan.FPRF] = of.FPRF
	v[floorplan.LSQ] = of.LSQ
	return v
}
