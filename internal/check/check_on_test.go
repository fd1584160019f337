//go:build rampdebug

package check_test

import (
	"math"
	"strings"
	"testing"

	"ramp/internal/check"
)

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestEnabled(t *testing.T) {
	if !check.Enabled {
		t.Fatal("check.Enabled false under the rampdebug build tag")
	}
}

func TestValidValuesPass(t *testing.T) {
	check.Assert(true, "t", "fine")
	check.Finite("t", 1.5)
	check.NonNegative("t", 0)
	check.Probability("t", 0)
	check.Probability("t", 1)
	check.TempK("t", 293)
	check.TempK("t", 400)
	check.InRange("t", 3.0e9, 2.5e9, 5.0e9)
}

func TestViolationsFire(t *testing.T) {
	mustPanic(t, "assertion failed", func() { check.Assert(false, "site.a", "boom") })
	mustPanic(t, "non-finite", func() { check.Finite("site.f", math.NaN()) })
	mustPanic(t, "non-finite", func() { check.Finite("site.f", math.Inf(-1)) })
	mustPanic(t, "non-negative", func() { check.NonNegative("site.n", -0.001) })
	mustPanic(t, "non-negative", func() { check.NonNegative("site.n", math.NaN()) })
	mustPanic(t, "out of [0,1]", func() { check.Probability("site.p", -0.1) })
	mustPanic(t, "out of [0,1]", func() { check.Probability("site.p", math.NaN()) })
	mustPanic(t, "implausible temperature", func() { check.TempK("site.t", 25) })
	mustPanic(t, "implausible temperature", func() { check.TempK("site.t", 5000) })
	mustPanic(t, "out of", func() { check.InRange("site.r", 6.0e9, 2.5e9, 5.0e9) })
}

// TestSiteInMessage verifies the panic names the instrumented site, the
// property that makes a field failure diagnosable without a debugger.
func TestSiteInMessage(t *testing.T) {
	mustPanic(t, "thermal.QuasiSteadyInto", func() { check.TempK("thermal.QuasiSteadyInto", 25) })
}
