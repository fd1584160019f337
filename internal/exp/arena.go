package exp

import (
	"sync"

	"ramp/internal/config"
	"ramp/internal/sim"
	"ramp/internal/trace"
)

// evalArena is the per-worker scratch state of one uncached evaluation:
// a pooled simulator core, a trace generator and a reusable epoch-row
// buffer. Arenas live in a package-level sync.Pool, so concurrent
// EvaluateAllCtx workers each hold their own arena and the buffers are
// reused — not reallocated — across the hundreds of evaluations of a
// sweep and across Envs.
//
// Aliasing rules:
//
//   - Everything in the arena is scratch owned by exactly one in-flight
//     evaluate call; nothing here may be referenced by a returned or
//     cached Result.
//   - The epoch rows the evaluation pipeline fills are arena scratch;
//     the Result (and therefore the cache) receives a compact copy, so
//     cached Result.Epochs have no live aliases and stay valid forever.
//     Callers must still treat them as read-only.
//
// An arena keeps one generator, not one per application: a generator's
// programs take about 90 KB, so a pooled arena holding all nine held
// 0.8 MB of them.
type evalArena struct {
	core *sim.Core
	gen  *trace.Generator
	rows []EpochRow
}

// arenas pools evaluation scratch across every Env. An arena holds
// nothing Env-specific — its core and generator are reset in place for
// each evaluation — so a fresh Env reuses the scratch of earlier ones.
// A pool embedded in each Env would also stay registered with the
// runtime for two garbage collections after its Env died, keeping that
// Env's result cache reachable; short-lived Envs would pile up.
var arenas sync.Pool

// getArena pops an arena from the pool, building one on first use.
func getArena() *evalArena {
	if a, _ := arenas.Get().(*evalArena); a != nil {
		return a
	}
	return &evalArena{}
}

// putArena returns an arena to the pool once its evaluation finished.
func putArena(a *evalArena) { arenas.Put(a) }

// generator returns the arena's generator reset onto app at the start
// of its stream (a fresh one on first use). Reset rebuilds the
// generator from the profile it is given, reusing its buffers where
// their shapes allow, so one generator serves every application.
//
//ramp:hot
func (a *evalArena) generator(app trace.Profile, seed int64) (*trace.Generator, error) {
	if a.gen != nil {
		if err := a.gen.Reset(app, seed); err != nil {
			return nil, err
		}
		return a.gen, nil
	}
	g, err := trace.NewGenerator(app, seed)
	if err != nil {
		return nil, err
	}
	a.gen = g
	return g, nil
}

// coreFor returns a simulator core for (proc, gen): the pooled one
// reset in place when the arena has one (reusing every buffer whose
// shape matches proc), a fresh one on first use.
//
//ramp:hot
func (a *evalArena) coreFor(proc config.Proc, gen sim.Source) (*sim.Core, error) {
	if a.core != nil {
		if err := a.core.Reset(proc, gen); err != nil {
			return nil, err
		}
		return a.core, nil
	}
	c, err := sim.New(proc, gen)
	if err != nil {
		return nil, err
	}
	a.core = c
	return c, nil
}

// epochRows returns a zeroed n-row scratch slice backed by the arena.
// The rows are valid only until the evaluation returns; results must
// copy them (see the aliasing rules above).
//
//ramp:hot
func (a *evalArena) epochRows(n int) []EpochRow {
	if cap(a.rows) < n {
		a.grow(n)
	}
	rows := a.rows[:n]
	clear(rows)
	return rows
}

// grow is epochRows' cold path, split out so the hot path stays free of
// allocation sites.
func (a *evalArena) grow(n int) { a.rows = make([]EpochRow, n) }
