// Package ramp is a from-scratch reproduction of "The Case for Lifetime
// Reliability-Aware Microprocessors" (Srinivasan, Adve, Bose, Rivers —
// ISCA 2004): the RAMP architecture-level lifetime reliability model,
// Dynamic Reliability Management (DRM), and the full evaluation stack the
// paper runs on — an out-of-order timing simulator, a Wattch-style power
// model, a HotSpot-style RC thermal model, and a nine-application
// synthetic workload suite calibrated to the paper's Table 2.
//
// This package is the public facade: it re-exports the library's types
// and constructors so downstream users never import internal packages.
//
// Quick start:
//
//	env := ramp.NewEnv(ramp.DefaultOptions())
//	app, _ := ramp.AppByName("MP3dec")
//	res, _ := env.Evaluate(app, env.Base, env.Qualification(400))
//	fmt.Println(res.IPC, res.AvgW, res.FIT(), res.Assessment.MTTFYears)
//
// The experiment drivers that regenerate every table and figure of the
// paper live behind the cmd/ binaries (rampsim, ramptables, drmexplore,
// drmdtm) and the benchmarks in bench_test.go.
package ramp

import (
	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/drm"
	"ramp/internal/dtm"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/sensor"
	"ramp/internal/sim"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

// Processor and technology configuration (Table 1).
type (
	// Proc is a complete processor configuration: microarchitecture plus
	// operating point.
	Proc = config.Proc
	// Tech holds technology-level parameters (65 nm by default).
	Tech = config.Tech
	// CacheConfig describes one cache level.
	CacheConfig = config.CacheConfig
)

// Workloads (Table 2).
type (
	// Profile is a synthetic application workload.
	Profile = trace.Profile
	// Phase is one stationary phase of a Profile.
	Phase = trace.Phase
	// Mix is an instruction-class mix.
	Mix = trace.Mix
	// Stream describes a data reference stream.
	Stream = trace.Stream
	// Instr is one dynamic instruction.
	Instr = trace.Instr
	// Generator produces a Profile's dynamic instruction stream.
	Generator = trace.Generator
)

// Simulation substrate.
type (
	// Core is the cycle-level out-of-order processor simulator.
	Core = sim.Core
	// SimResult summarises one simulated epoch.
	SimResult = sim.Result
	// Floorplan is the die floorplan shared by the power, thermal and
	// reliability models.
	Floorplan = floorplan.Floorplan
	// Structure identifies one microarchitectural structure on the die.
	Structure = floorplan.Structure
	// PowerModel computes per-structure dynamic and leakage power.
	PowerModel = power.Model
	// PowerVector holds one value per structure.
	PowerVector = power.Vector
	// ThermalModel is the thermal resistance network of a die.
	ThermalModel = thermal.Model
)

// RAMP — the paper's reliability model.
type (
	// ReliabilityParams holds the failure-mechanism constants.
	ReliabilityParams = core.Params
	// Mechanism identifies a wear-out failure mechanism (EM, SM, TDDB, TC).
	Mechanism = core.Mechanism
	// Conditions describe a structure's operating point.
	Conditions = core.Conditions
	// Qualification is a reliability qualification point (T_qual etc.).
	Qualification = core.Qualification
	// Budget is the per-structure, per-mechanism FIT allocation.
	Budget = core.Budget
	// Engine accumulates intervals into an application FIT value.
	Engine = core.Engine
	// Assessment is the engine's verdict for a run.
	Assessment = core.Assessment
	// Interval is one observation fed to the engine.
	Interval = core.Interval
	// LifetimeModel extends SOFR with Weibull wear-out distributions
	// (the paper's time-dependence future work, Sections 3.5/8).
	LifetimeModel = core.LifetimeModel
	// WeibullShapes holds per-mechanism Weibull shape parameters.
	WeibullShapes = core.WeibullShapes
	// WorkloadComponent is one application's share of a workload mix.
	WorkloadComponent = core.WorkloadComponent
	// TechNode is one CMOS generation of the scaling ladder.
	TechNode = config.TechNode
	// TempSensorSpec describes an on-die thermal sensor (hardware RAMP).
	TempSensorSpec = sensor.TempSensorSpec
	// TempArray is a bank of per-structure thermal sensors.
	TempArray = sensor.TempArray
	// CounterSpec describes activity-counter hardware.
	CounterSpec = sensor.CounterSpec
	// SensorHarness drives a RAMP engine through emulated sensors.
	SensorHarness = sensor.Harness
)

// Evaluation harness and management policies.
type (
	// Env bundles the models of one experimental setup.
	Env = exp.Env
	// Options controls simulation lengths and methodology knobs.
	Options = exp.Options
	// Result is the outcome of one (application, configuration) run.
	Result = exp.Result
	// EvalJob names one evaluation for batch runs.
	EvalJob = exp.EvalJob
	// DRMOracle explores adaptation spaces for dynamic reliability
	// management.
	DRMOracle = drm.Oracle
	// DRMSweep is an evaluated adaptation space, reusable across T_qual.
	DRMSweep = drm.Sweep
	// DRMChoice is the DRM oracle's decision.
	DRMChoice = drm.Choice
	// Adaptation selects a DRM adaptation space (Arch, DVS, ArchDVS).
	Adaptation = drm.Adaptation
	// Controller is the reactive interval-based DRM controller (the
	// paper's proposed future work: online control without an oracle).
	Controller = drm.Controller
	// ControlPolicy selects how the controller interprets the target
	// (Instantaneous or Banked).
	ControlPolicy = drm.ControlPolicy
	// ControlTrace records one reactively controlled run.
	ControlTrace = drm.ControlTrace
	// DTMOracle picks operating points under a thermal constraint.
	DTMOracle = dtm.Oracle
	// DTMSweep is an evaluated DVS ladder, reusable across T_max.
	DTMSweep = dtm.Sweep
	// DTMChoice is the DTM oracle's decision.
	DTMChoice = dtm.Choice
)

// Failure mechanisms.
const (
	EM   = core.EM
	SM   = core.SM
	TDDB = core.TDDB
	TC   = core.TC
)

// DRM adaptation spaces (Section 5).
const (
	Arch    = drm.Arch
	DVS     = drm.DVS
	ArchDVS = drm.ArchDVS
)

// Reactive control policies.
const (
	Instantaneous = drm.Instantaneous
	Banked        = drm.Banked
)

// StandardTargetFIT is the paper's qualification target: 4000 FIT
// (roughly a 30-year MTTF).
const StandardTargetFIT = core.StandardTargetFIT

// BaseProcessor returns the paper's Table 1 base non-adaptive processor.
func BaseProcessor() Proc { return config.Base() }

// Technology65nm returns the paper's 65 nm technology point.
func Technology65nm() Tech { return config.Tech65nm() }

// ArchConfigs returns the 18 microarchitectural adaptation
// configurations of Section 6.1.
func ArchConfigs() []Proc { return config.ArchConfigs() }

// DVSFrequencies returns the 2.5-5.0 GHz DVS grid with the given step.
func DVSFrequencies(stepHz float64) []float64 { return config.DVSFrequencies(stepHz) }

// VoltageForFreq returns the supply voltage the DVS curve requires for a
// frequency.
func VoltageForFreq(freqHz float64) float64 { return config.VoltageForFreq(freqHz) }

// Apps returns the paper's nine-application workload suite.
func Apps() []Profile { return trace.Apps() }

// AppByName returns a built-in application profile by name.
func AppByName(name string) (Profile, error) { return trace.AppByName(name) }

// NewGenerator builds a deterministic trace generator for a profile.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	return trace.NewGenerator(p, seed)
}

// NewCore builds a cycle-level simulator for a configuration and trace.
func NewCore(cfg Proc, gen *Generator) (*Core, error) { return sim.New(cfg, gen) }

// R10000Floorplan returns the paper's R10000-like 4.5mm x 4.5mm core
// floorplan.
func R10000Floorplan() *Floorplan { return floorplan.R10000Like() }

// DefaultReliabilityParams returns the paper's failure-model constants;
// ambientK is the thermal cycle's cold end (core.TCAmbientK = 293 K for
// the power-off cycle the paper models).
func DefaultReliabilityParams(ambientK float64) ReliabilityParams {
	return core.DefaultParams(ambientK)
}

// TCAmbientK is the default cold end of the modelled thermal cycle.
const TCAmbientK = core.TCAmbientK

// NewEngine builds a RAMP engine for a floorplan, parameter set and
// qualification point.
func NewEngine(fp *Floorplan, p ReliabilityParams, q Qualification) (*Engine, error) {
	return core.NewEngine(fp, p, q)
}

// NewLifetimeModel builds the time-dependent (Weibull wear-out) lifetime
// model from an assessment; use DefaultWeibullShapes for representative
// wear-out hazards.
func NewLifetimeModel(a Assessment, shapes WeibullShapes) (*LifetimeModel, error) {
	return core.NewLifetimeModel(a, shapes)
}

// DefaultWeibullShapes returns representative per-mechanism wear-out
// shape parameters.
func DefaultWeibullShapes() WeibullShapes { return core.DefaultShapes() }

// WorkloadFIT combines application FIT values by time-weighted averaging
// (Section 3.6).
func WorkloadFIT(components []WorkloadComponent) (float64, error) {
	return core.WorkloadFIT(components)
}

// TechLadder returns the 180/130/90/65 nm generation ladder used by the
// technology-scaling study.
func TechLadder() []TechNode { return config.TechLadder() }

// NewTempSensors builds a bank of emulated on-die thermal sensors.
func NewTempSensors(spec TempSensorSpec, seed int64) (*TempArray, error) {
	return sensor.NewTempArray(spec, seed)
}

// DefaultTempSensors returns a realistic thermal-sensor specification.
func DefaultTempSensors() TempSensorSpec { return sensor.DefaultTempSensors() }

// DefaultCounters returns 8-bit activity-counter readouts.
func DefaultCounters() CounterSpec { return sensor.DefaultCounters() }

// NewSensorHarness wires emulated sensors to a RAMP engine: the engine
// only ever sees sensed temperatures and quantised activities, as a
// hardware implementation of RAMP would (Section 3).
func NewSensorHarness(temps *TempArray, counters CounterSpec, engine *Engine) (*SensorHarness, error) {
	return sensor.NewHarness(temps, counters, engine)
}

// DefaultOptions returns full-length simulation options; QuickOptions
// returns short runs for tests and exploration.
func DefaultOptions() Options { return exp.DefaultOptions() }

// QuickOptions returns much shorter runs for tests and benchmarks.
func QuickOptions() Options { return exp.QuickOptions() }

// NewEnv builds the standard experimental environment (Table 1 base
// machine, R10000-like floorplan, default power budget and package).
func NewEnv(opts Options) *Env { return exp.NewEnv(opts) }

// NewDRMOracle returns the once-per-application oracular DRM controller
// of Section 5.
func NewDRMOracle(env *Env) *DRMOracle { return drm.NewOracle(env) }

// NewController returns the reactive interval-based DRM controller: it
// adapts the DVS operating point online from RAMP's running FIT
// estimate, with no oracle knowledge of the application.
func NewController(env *Env, qual Qualification, policy ControlPolicy) *Controller {
	return drm.NewController(env, qual, policy)
}

// NewDTMOracle returns the DVS-based dynamic thermal management
// controller used in the Section 7.3 comparison.
func NewDTMOracle(env *Env) *DTMOracle { return dtm.NewOracle(env) }

// DTMSweepFrom reuses a DRM DVS sweep's evaluations for DTM selection —
// the same candidates judged on peak temperature instead of FIT.
func DTMSweepFrom(s *DRMSweep) *DTMSweep {
	return &DTMSweep{App: s.App, Base: s.Base, Candidates: s.Candidates}
}
