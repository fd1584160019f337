package core

import "ramp/internal/obs"

// FITTimers accumulates the time spent evaluating each failure
// mechanism's rate model, in nanoseconds, across every exposure recorded
// with them. Budget.Assess evaluates no rate model, so requalification
// adds nothing. The counters answer the profiling question pprof flattens
// away: of the RAMP arithmetic, how much goes to EM vs SM vs TDDB vs TC?
type FITTimers struct {
	EM, SM, TDDB, TC *obs.Counter
}

// NewFITTimers resolves the per-mechanism timer counters from reg
// (core_fit_compute_ns_em and friends). A nil registry returns nil
// timers, which keep rate evaluation on the untimed fast path.
func NewFITTimers(reg *obs.Registry) *FITTimers {
	if reg == nil {
		return nil
	}
	return &FITTimers{
		EM:   reg.Counter("core_fit_compute_ns_em"),
		SM:   reg.Counter("core_fit_compute_ns_sm"),
		TDDB: reg.Counter("core_fit_compute_ns_tddb"),
		TC:   reg.Counter("core_fit_compute_ns_tc"),
	}
}

// counter returns mechanism m's timer.
func (t *FITTimers) counter(m Mechanism) *obs.Counter {
	switch m {
	case EM:
		return t.EM
	case SM:
		return t.SM
	case TDDB:
		return t.TDDB
	default:
		return t.TC
	}
}
