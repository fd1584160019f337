package lint

import (
	"go/ast"
	"go/types"

	"ramp/internal/lint/flow"
)

// SeedDet flags non-deterministic RNG construction outside tests.
//
// RAMP's fleet Monte Carlo, trace generation and sensor noise models
// are all specified to be reproducible: the same seed must
// produce the same lifetime distribution, or results cannot be compared
// across runs, machines or CI. Two patterns break that contract:
//
//   - seeding from the clock: rand.New(rand.NewSource(time.Now()...)),
//   - the global math/rand functions (rand.Float64, rand.Intn, ...),
//     which share an unseeded (Go ≥1.20: randomly-seeded) global state.
//
// Both must instead construct rand.New(rand.NewSource(seed)) with a
// seed plumbed from configuration (exp.Options.Seed). The loader never
// parses _test.go files, so tests may do what they like.
var SeedDet = &Analyzer{
	Name: "seeddet",
	Doc:  "flags time-seeded or global math/rand usage outside tests; seeds must come from config",
	Run:  runSeedDet,
}

// randGlobalFuncs are the top-level math/rand functions backed by the
// shared global source. Constructors and helpers that take an explicit
// source or produce no randomness are excluded.
var randGlobalFuncs = map[string]bool{
	"Int": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Intn": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func runSeedDet(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := flow.Callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods on *rand.Rand are fine
			}
			switch {
			case fn.Name() == "New" || fn.Name() == "NewSource":
				for _, arg := range call.Args {
					// A rand.New(rand.NewSource(...)) chain is reported
					// once, at the inner NewSource call.
					if fn.Name() == "New" && containsCallTo(pass.Info, arg, "math/rand", "NewSource") {
						continue
					}
					if containsCallTo(pass.Info, arg, "time", "Now") {
						pass.Reportf(call.Pos(), "RNG seeded from time.Now is not reproducible; plumb a config seed (exp.Options.Seed)")
						break
					}
				}
			case randGlobalFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "global rand.%s uses shared non-deterministic state; construct rand.New(rand.NewSource(seed)) with a config-plumbed seed", fn.Name())
			}
			return true
		})
	}
	return nil
}
