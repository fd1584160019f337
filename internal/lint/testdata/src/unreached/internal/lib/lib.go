// Package lib is the fixture's internal package: cmd/tool and the facade
// reach part of it, and only tests reach the rest.
package lib

func init() { initHelper() }

func initHelper() {}

// Called is reached from cmd/tool, and helper through it.
func Called() { helper() }

func helper() {}

// Unused is exported, but only a test calls it.
func Unused() {} // want `^Unused is reached by no command, example, perfbench or facade function`

func unused() {} // want `^unused is reached by no command`

//rampvet:ignore unreached -- kept for the fixture's ignore case
func justified() {}

// T has one method reached as a method value, one reached through
// fmt.Stringer, and one that nothing reaches.
type T struct{}

func (T) Reached() {}

func (T) String() string { return "T" }

func (T) Dead() {} // want `^T\.Dead is reached by no command`

// registered reaches ViaVar from a package-level declaration.
var registered = []func() int{ViaVar}

func ViaVar() int { return 1 }

// Map is generic; cmd/tool calls its int instance.
func Map[E any](xs []E, f func(E) E) []E {
	out := make([]E, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func Identity[E any](x E) E { return x } // want `^Identity is reached by no command`

// Box is a generic type; cmd/tool calls Get on a Box[string].
type Box[E any] struct{ v E }

func (b Box[E]) Get() E { return b.v }

func (b *Box[E]) Put(v E) { b.v = v } // want `^Box\.Put is reached by no command`

// Runner is a module interface, so any method named Run is reached.
type Runner interface{ Run() }

type job struct{}

func (job) Run() {}

// Facaded is reached from the facade's Facade.
func Facaded() {}

// Aliased is re-exported by the facade; that makes none of its methods
// roots.
type Aliased struct{}

func (Aliased) Unexposed() {} // want `^Aliased\.Unexposed is reached by no command`
