// Package check is RAMP's runtime invariant layer: executable
// assertions for the physics invariants the lifetime math depends on —
// temperatures in plausible Kelvin range, probabilities in [0,1], FIT
// values non-negative and finite, DVS operating points within bounds.
//
// The package has two personalities selected by the `rampdebug` build
// tag:
//
//   - Default build: every function is an empty no-op that the compiler
//     inlines away. Instrumented hot paths (core.Rate,
//     thermal.QuasiSteadyInto, power.ComputeInto, ...) pay nothing — zero time,
//     zero allocations (verified by TestNoOpAllocs).
//   - `go build -tags rampdebug` / `go test -tags rampdebug`: every
//     function verifies its invariant and panics with the failing site
//     and value on violation.
//
// The static half of this contract is cmd/rampvet: rampvet proves at
// analysis time what it can (unguarded Arrhenius denominators, Celsius
// constants flowing into Kelvin parameters), and check verifies at run
// time what static analysis cannot (values computed from data).
//
// Convention: `site` is a short dotted path naming the instrumented
// location ("core.Params.Rate", "thermal.QuasiSteadyInto") so a violation
// panic identifies the site without a debugger.
package check

// Plausible silicon/package temperature bounds (Kelvin) enforced by
// TempK. The model's coldest point is a powered-off package at room
// temperature (~293 K) and the paper's hottest runs peak near 400 K;
// anything outside [MinPlausibleK, MaxPlausibleK] means a unit error
// (Celsius leaking into a Kelvin path) or a diverged solver.
const (
	MinPlausibleK = 200
	MaxPlausibleK = 1200
)

// Enabled reports whether invariant checking is compiled in (true only
// under the rampdebug build tag).
const Enabled = enabled
