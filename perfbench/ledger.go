package main

import (
	"sort"
	"time"

	"ramp/internal/obs"
)

// span is one benchmark-side span: a timed call into a program layer.
// Spans on one track strictly nest; parent indexes the same slice (-1
// for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// recorder keeps the spans of one track (one goroutine) in memory. The
// nil recorder records nothing, so untraced runs pay one nil check per
// call.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// time runs fn inside a span named name.
func (r *recorder) time(name string, fn func() error) error {
	i := r.begin(name)
	err := fn()
	r.end(i)
	return err
}

// ledger splits the time covered by root spans into per-name self time:
// a span's duration minus the part of it its direct children cover.
// Root spans' self time is reported as "unattributed". The parts sum to
// the roots' total duration when every track nests properly.
type ledger struct {
	parts map[string]time.Duration
	total time.Duration // summed root durations
}

// unattributed names the root spans' self time in a ledger.
const unattributed = "unattributed"

func newLedger(spans []span) ledger {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	l := ledger{parts: make(map[string]time.Duration)}
	for i, s := range spans {
		name := s.name
		if s.parent < 0 {
			name = unattributed
			l.total += s.end - s.start
		}
		l.parts[name] += s.end - s.start - covered(s, kids[i], spans)
	}
	return l
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, kids []int, spans []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, reach time.Duration
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			sum += v.hi - lo
		}
		reach = max(reach, v.hi)
	}
	return sum
}

func (l ledger) sum() time.Duration {
	var s time.Duration
	for _, d := range l.parts {
		s += d
	}
	return s
}

// ledgerTolerance is the largest gap between the ledger's parts and the
// independently measured wall time the check accepts: 0.5% of wall,
// and never under 1 ms.
func ledgerTolerance(wall time.Duration) time.Duration {
	return max(wall/200, time.Millisecond)
}

// report prints the ledger, checks its parts against wall (the timed
// phase's wall time times the number of tracks it covers) and returns
// the ledger metrics, in seconds.
func (l ledger) report(r *run, title string, wall time.Duration) map[string]float64 {
	names := make([]string, 0, len(l.parts))
	for n := range l.parts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.parts[names[i]] > l.parts[names[j]] })
	r.logf("ledger %s: self time per layer (share of wall %.4fs)", title, wall.Seconds())
	for _, n := range names {
		r.logf("  %-28s %10.4fs %6.1f%%", n, l.parts[n].Seconds(), 100*l.parts[n].Seconds()/wall.Seconds())
	}
	gap := l.sum() - wall
	r.logf("  %-28s %10.4fs (tolerance %.4fs)", "parts - wall", gap.Seconds(), ledgerTolerance(wall).Seconds())
	r.check(gap.Abs() <= ledgerTolerance(wall), "ledger %s: parts %.6fs vs wall %.6fs", title, l.sum().Seconds(), wall.Seconds())
	return map[string]float64{
		"ledger.unattributed_s": l.parts[unattributed].Seconds(),
		"ledger.parts_s":        l.sum().Seconds(),
		"ledger.wall_s":         wall.Seconds(),
		"ledger.error_s":        gap.Seconds(),
	}
}

// laneLedger builds the evaluate-pipeline ledger from the spans the
// program itself emits on an instrumented exp.Env: every exp.evaluate
// opens its own track, and the sim, fixed-point, sink-pass and RAMP
// spans nest on it. The parts sum to the summed exp.evaluate durations
// (host time across both workers, not wall time).
func laneLedger(events []obs.SpanEvent) ledger {
	evalTracks := make(map[uint64]bool)
	for _, e := range events {
		if e.Name == "exp.evaluate" {
			evalTracks[e.Track] = true
		}
	}
	index := make(map[uint64]int)
	var spans []span
	for _, e := range events {
		if evalTracks[e.Track] {
			index[e.ID] = len(spans)
			spans = append(spans, span{name: e.Name, start: e.Start, end: e.Start + e.Dur})
		}
	}
	k := 0
	for _, e := range events {
		if !evalTracks[e.Track] {
			continue
		}
		spans[k].parent = -1
		if p, ok := index[e.Parent]; ok && e.Name != "exp.evaluate" {
			spans[k].parent = p
		}
		k++
	}
	l := newLedger(spans)
	// In this ledger the roots are the evaluations themselves.
	l.parts["exp.evaluate"] = l.parts[unattributed]
	delete(l.parts, unattributed)
	return l
}
