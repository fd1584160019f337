// Package sensor models the hardware-side realisation of RAMP.
//
// Section 3 notes that "in real hardware, RAMP would require sensors and
// counters that provide information on processor operating conditions".
// This package emulates that instrumentation: per-structure thermal
// sensors with quantisation, calibration bias, noise and first-order lag
// (real thermal diodes respond slower than silicon), and saturating
// activity counters of finite width. A Harness feeds a core.Engine
// through these imperfect readings, so the difference between
// model-ideal FIT and hardware-observed FIT can be quantified — the
// error budget a real DRM controller has to absorb.
package sensor

import (
	"fmt"
	"math"

	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/splitmix"
)

// TempSensorSpec describes one class of on-die temperature sensor.
type TempSensorSpec struct {
	// QuantK is the quantisation step of the digital readout (K).
	QuantK float64
	// BiasK is a fixed per-sensor calibration offset bound: each sensor
	// draws its bias uniformly from [-BiasK, +BiasK] at build time.
	BiasK float64
	// NoiseStdK is the standard deviation of per-reading Gaussian noise.
	NoiseStdK float64
	// FilterAlpha is the first-order response per reading: the sensed
	// value moves alpha of the way to the true temperature each sample
	// (1 = instant, small = laggy diode).
	FilterAlpha float64
}

// DefaultTempSensors returns a realistic on-die thermal sensor: 1 K
// quantisation, ±1.5 K calibration, 0.5 K noise, fast-but-not-instant
// response.
func DefaultTempSensors() TempSensorSpec {
	return TempSensorSpec{QuantK: 1.0, BiasK: 1.5, NoiseStdK: 0.5, FilterAlpha: 0.7}
}

// Validate checks the spec.
func (s TempSensorSpec) Validate() error {
	if s.QuantK < 0 || s.BiasK < 0 || s.NoiseStdK < 0 {
		return fmt.Errorf("sensor: negative spec field: %+v", s)
	}
	if s.FilterAlpha <= 0 || s.FilterAlpha > 1 {
		return fmt.Errorf("sensor: FilterAlpha %v out of (0,1]", s.FilterAlpha)
	}
	return nil
}

// TempArray is a bank of per-structure temperature sensors.
type TempArray struct {
	spec  TempSensorSpec
	bias  power.Vector
	state power.Vector // filtered value; 0 = uninitialised
	init  bool
	rng   splitmix.Stream
}

// NewTempArray builds a sensor bank; biases and read noise are drawn
// deterministically from one splitmix stream of the mixed seed (each
// physical die has its own fixed calibration error).
func NewTempArray(spec TempSensorSpec, seed int64) (*TempArray, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a := &TempArray{spec: spec, rng: splitmix.NewStream(splitmix.Mix64(uint64(seed)))}
	for i := range a.bias {
		a.bias[i] = (2*a.rng.Uniform() - 1) * spec.BiasK
	}
	return a, nil
}

// Read samples every sensor against the true temperatures and returns
// the digital readings.
func (a *TempArray) Read(trueK power.Vector) power.Vector {
	var out power.Vector
	for s := range trueK {
		if !a.init {
			a.state[s] = trueK[s]
		} else {
			a.state[s] += a.spec.FilterAlpha * (trueK[s] - a.state[s])
		}
		v := a.state[s] + a.bias[s] + splitmix.Normal(a.rng.Uniform(), a.rng.Uniform())*a.spec.NoiseStdK
		if q := a.spec.QuantK; q > 0 {
			v = math.Round(v/q) * q
		}
		out[s] = v
	}
	a.init = true
	return out
}

// CounterSpec describes the activity-counter hardware.
type CounterSpec struct {
	// Bits is the readout resolution: activity is quantised to 2^Bits
	// levels across [0,1].
	Bits int
}

// DefaultCounters returns 8-bit activity readouts.
func DefaultCounters() CounterSpec { return CounterSpec{Bits: 8} }

// Validate checks the spec.
func (c CounterSpec) Validate() error {
	if c.Bits < 1 || c.Bits > 32 {
		return fmt.Errorf("sensor: counter bits %d out of [1,32]", c.Bits)
	}
	return nil
}

// Quantize maps a true activity factor to its counter readout.
func (c CounterSpec) Quantize(activity float64) float64 {
	levels := float64(int64(1) << uint(c.Bits))
	q := math.Round(activity*levels) / levels
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// Harness drives a RAMP engine through the sensor stack: the engine only
// ever sees sensed temperatures and quantised activities, exactly as a
// hardware implementation would.
type Harness struct {
	Temps    *TempArray
	Counters CounterSpec
	Engine   *core.Engine
}

// NewHarness wires sensors to an engine.
func NewHarness(temps *TempArray, counters CounterSpec, engine *core.Engine) (*Harness, error) {
	if err := counters.Validate(); err != nil {
		return nil, err
	}
	if temps == nil || engine == nil {
		return nil, fmt.Errorf("sensor: nil harness component")
	}
	return &Harness{Temps: temps, Counters: counters, Engine: engine}, nil
}

// Observe converts one true interval into sensed readings and feeds the
// engine. It returns the sensed interval for inspection.
func (h *Harness) Observe(iv core.Interval) (core.Interval, error) {
	var trueK power.Vector
	for s := range iv.Structures {
		trueK[s] = iv.Structures[s].TempK
	}
	sensedK := h.Temps.Read(trueK)
	sensed := iv
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		sensed.Structures[s].TempK = sensedK[s]
		sensed.Structures[s].Activity = h.Counters.Quantize(iv.Structures[s].Activity)
	}
	if err := h.Engine.Observe(sensed); err != nil {
		return core.Interval{}, err
	}
	return sensed, nil
}
