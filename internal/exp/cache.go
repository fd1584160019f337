package exp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"ramp/internal/config"
)

// evalKey identifies the qualification-independent part of one
// evaluation: what ran (application, seed, run lengths, methodology
// knobs) and on what hardware (every numeric field of the processor
// configuration). Proc.Name is cleared before keying — naming is
// cosmetic, so the base machine and the identically-configured DVS grid
// point "w128-a6-f4@4.00GHz" memoize to the same simulation. The
// qualification point is deliberately absent: simulation, power,
// temperature and the RAMP exposure do not depend on it, and any T_qual's
// assessment is its budget applied to the cached exposure.
type evalKey struct {
	app  string
	proc config.Proc
	opts Options // includes Seed; fixed per Env, kept for content-keying
}

// cacheEntry memoizes one evaluation. The first Evaluate for a key
// becomes the leader and runs the simulation; concurrent callers for the
// same key wait on done rather than duplicating the work (singleflight).
// Unlike a sync.Once flight, a leader whose context is cancelled does
// not burn the entry: the cancelled entry is dropped from the map before
// done closes, so one of the waiters (or a later caller) retakes
// leadership and the configuration still gets simulated exactly once by
// a caller that actually wants it. ready flips before done closes, so a
// waiter woken by done knows whether res/err are valid.
type cacheEntry struct {
	done  chan struct{} // closed when the flight finishes (or is abandoned)
	ready atomic.Bool   // res/err valid (flight completed, not abandoned)
	res   Result        // everything but the assessment
	err   error
}

// CacheStats is a point-in-time snapshot of the evaluation cache's
// effectiveness counters, exported for the serve layer's /metrics
// endpoint and for singleflight assertions in tests.
type CacheStats struct {
	// Hits counts Evaluate calls served without starting a simulation:
	// either from a completed entry or by joining an in-flight one.
	Hits int64
	// Misses counts Evaluate calls that started a simulation (took
	// leadership of a flight). With no cancellations, Misses equals the
	// number of distinct keys evaluated.
	Misses int64
	// Entries is the number of distinct keys resident (completed or in
	// flight).
	Entries int
}

// evalCache is the concurrency-safe memo table hanging off an Env. The
// zero value is ready to use.
type evalCache struct {
	mu     sync.Mutex
	m      map[evalKey]*cacheEntry
	hits   atomic.Int64
	misses atomic.Int64
}

// acquire returns the entry for k and whether the caller became the
// flight's leader. A leader must call either complete or abandon.
func (c *evalCache) acquire(k evalKey) (e *cacheEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[evalKey]*cacheEntry)
	}
	if e = c.m[k]; e != nil {
		c.hits.Add(1)
		return e, false
	}
	e = &cacheEntry{done: make(chan struct{})}
	c.m[k] = e
	c.misses.Add(1)
	return e, true
}

// complete publishes a leader's finished flight.
func (c *evalCache) complete(e *cacheEntry) {
	e.ready.Store(true)
	close(e.done)
}

// abandon drops a cancelled leader's flight so the key can be retried;
// waiters see done close with ready still false and re-acquire.
func (c *evalCache) abandon(k evalKey, e *cacheEntry) {
	c.mu.Lock()
	if c.m[k] == e {
		delete(c.m, k)
	}
	c.mu.Unlock()
	close(e.done)
}

// Len reports how many distinct evaluations have been memoized
// (completed or in flight); exported for tests and diagnostics.
func (c *evalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the cache counters.
func (c *evalCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.Len(),
	}
}

// isCtxErr reports whether err is a context cancellation or deadline —
// the class of error that abandons (rather than poisons) a flight.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
