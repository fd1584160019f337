// Package slo evaluates declarative service-level objectives over
// telemetry windows with multi-window burn-rate logic — the gate
// rampload uses to turn a load run into a CI verdict. The windows are
// the cumulative registry snapshots at their boundaries, so the change
// over any run of consecutive windows is one Snapshot.Delta.
//
// An objective comes in two shapes that reduce to the same arithmetic:
//
//   - a rate objective names bad-event counters and a total counter
//     ("429 sheds must stay under 5% of requests"): budget = MaxRatio;
//   - a latency objective names a latency histogram, a quantile and a
//     bound ("p99 ≤ 200ms"): the bound converts to a countable bad
//     fraction via HistogramSnapshot.FractionAbove — "p99 ≤ 200ms" is
//     exactly "no more than 1% of requests slower than 200ms" — so the
//     budget is 1−P and the same burn-rate math applies.
//
// The burn rate is the classic SRE quantity: observed bad fraction
// divided by the budget. Burn 1 means the run is consuming its error
// budget exactly as fast as allowed; burn 10 means ten times too fast.
// Two trip wires per objective, both required to call a breach on burn
// alone (the multi-window pattern: the fast window catches the spike,
// the slow window proves it is sustained, and requiring both keeps
// one-window blips from flapping the gate):
//
//   - fast: burn over the last FastWindows windows ≥ FastBurn,
//   - slow: burn over the last SlowWindows windows ≥ SlowBurn.
//
// Independently, exhausting the budget over the whole run (overall bad
// fraction > budget) is always a breach — a CI load run is finite, so
// final compliance is decidable.
package slo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ramp/internal/obs"
)

// Default burn-gate geometry: with rampload's 1-second windows this is
// a 6 s fast window at 10× burn and a 30 s slow window at 2× burn.
const (
	DefaultFastWindows = 6
	DefaultSlowWindows = 30
	DefaultFastBurn    = 10
	DefaultSlowBurn    = 2
)

// Objective is one declarative SLO. Exactly one of the latency form
// (Hist/P/MaxUS) or the rate form (Bad/Total/MaxRatio) must be set.
type Objective struct {
	Name string `json:"name"`

	// Latency form: the named histogram's P-quantile must stay ≤ MaxUS
	// microseconds; equivalently, at most (1−P) of observations may
	// exceed MaxUS.
	Hist  string  `json:"hist,omitempty"`
	P     float64 `json:"p,omitempty"`
	MaxUS float64 `json:"max_us,omitempty"`

	// Rate form: the sum of the Bad counters must stay ≤ MaxRatio of
	// the Total counter.
	Bad      []string `json:"bad,omitempty"`
	Total    string   `json:"total,omitempty"`
	MaxRatio float64  `json:"max_ratio,omitempty"`

	// Burn-rate gate (0 → the Default* constants).
	FastWindows int     `json:"fast_windows,omitempty"`
	SlowWindows int     `json:"slow_windows,omitempty"`
	FastBurn    float64 `json:"fast_burn,omitempty"`
	SlowBurn    float64 `json:"slow_burn,omitempty"`
}

// Kind reports which form the objective takes ("latency" or "rate").
func (o *Objective) Kind() string {
	if o.Hist != "" {
		return "latency"
	}
	return "rate"
}

// Budget is the allowed bad fraction: 1−P for latency objectives,
// MaxRatio for rate objectives.
func (o *Objective) Budget() float64 {
	if o.Hist != "" {
		return 1 - o.P
	}
	return o.MaxRatio
}

// Validate rejects malformed objectives.
func (o *Objective) Validate() error {
	if o.Name == "" {
		return errors.New("slo: objective needs a name")
	}
	latency := o.Hist != ""
	rate := len(o.Bad) > 0 || o.Total != "" || o.MaxRatio > 0
	switch {
	case latency && rate:
		return fmt.Errorf("slo: %s sets both latency (hist) and rate (bad/total) fields", o.Name)
	case latency:
		if o.P <= 0 || o.P >= 1 {
			return fmt.Errorf("slo: %s quantile p=%g outside (0, 1)", o.Name, o.P)
		}
		if o.MaxUS <= 0 {
			return fmt.Errorf("slo: %s latency bound max_us=%g must be positive", o.Name, o.MaxUS)
		}
	case rate:
		if len(o.Bad) == 0 || o.Total == "" {
			return fmt.Errorf("slo: %s rate objective needs bad counters and a total counter", o.Name)
		}
		if o.MaxRatio <= 0 || o.MaxRatio >= 1 {
			return fmt.Errorf("slo: %s max_ratio=%g outside (0, 1)", o.Name, o.MaxRatio)
		}
	default:
		return fmt.Errorf("slo: %s sets neither latency nor rate fields", o.Name)
	}
	if o.FastWindows < 0 || o.SlowWindows < 0 || o.FastBurn < 0 || o.SlowBurn < 0 {
		return fmt.Errorf("slo: %s burn-gate fields must be non-negative", o.Name)
	}
	return nil
}

// gate returns the burn-gate geometry with defaults applied.
func (o *Objective) gate() (fastN, slowN int, fastBurn, slowBurn float64) {
	fastN, slowN = o.FastWindows, o.SlowWindows
	fastBurn, slowBurn = o.FastBurn, o.SlowBurn
	if fastN == 0 {
		fastN = DefaultFastWindows
	}
	if slowN == 0 {
		slowN = DefaultSlowWindows
	}
	if fastBurn == 0 {
		fastBurn = DefaultFastBurn
	}
	if slowBurn == 0 {
		slowBurn = DefaultSlowBurn
	}
	return fastN, slowN, fastBurn, slowBurn
}

// badFraction computes the objective's (bad, total) event counts over
// one snapshot (a window delta or a whole-run delta).
func (o *Objective) badFraction(s obs.Snapshot) (bad, total float64) {
	if o.Hist != "" {
		h := s.Histograms[o.Hist]
		total = float64(h.Count)
		bad = h.FractionAbove(o.MaxUS) * total
		return bad, total
	}
	for _, name := range o.Bad {
		bad += float64(s.Counters[name])
	}
	return bad, float64(s.Counters[o.Total])
}

// tail returns the change over the last n windows (all of them when
// fewer are retained): the newest boundary snapshot minus the one n
// windows before it.
func tail(windows []obs.Snapshot, n int) obs.Snapshot {
	last := len(windows) - 1
	return windows[last].Delta(windows[max(0, last-n)])
}

// Result is one objective's verdict.
type Result struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Budget float64 `json:"budget"`

	// Overall is the whole-run bad fraction; Burn is Overall/Budget.
	Events  float64 `json:"events"`
	Overall float64 `json:"overall_bad_fraction"`
	Burn    float64 `json:"burn"`

	// FastBurn/SlowBurn are the measured tail-window burn rates;
	// Windows is how many windows were available.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Windows  int     `json:"windows"`

	Breached bool   `json:"breached"`
	Reason   string `json:"reason,omitempty"`
}

// burn converts a (bad, total) pair into a burn rate against budget.
func burn(bad, total, budget float64) float64 {
	if total <= 0 || budget <= 0 {
		return 0
	}
	return (bad / total) / budget
}

// Evaluate scores every objective against the whole-run snapshot delta
// (overall compliance) and the retained windows (burn gate): windows
// holds the cumulative snapshots at the window boundaries, oldest
// first, so n snapshots bound n−1 windows. Objectives are validated
// first; the first invalid one fails the call.
func Evaluate(objs []Objective, total obs.Snapshot, windows []obs.Snapshot) ([]Result, error) {
	nWin := max(0, len(windows)-1)
	results := make([]Result, 0, len(objs))
	for i := range objs {
		o := &objs[i]
		if err := o.Validate(); err != nil {
			return nil, err
		}
		budget := o.Budget()
		bad, n := o.badFraction(total)
		res := Result{
			Name: o.Name, Kind: o.Kind(), Budget: budget,
			Events: n, Windows: nWin,
		}
		if n > 0 {
			res.Overall = bad / n
			res.Burn = burn(bad, n, budget)
		}
		fastN, slowN, fastBurn, slowBurn := o.gate()
		if nWin > 0 {
			fb, ft := o.badFraction(tail(windows, fastN))
			sb, st := o.badFraction(tail(windows, slowN))
			res.FastBurn = burn(fb, ft, budget)
			res.SlowBurn = burn(sb, st, budget)
		}
		switch {
		case res.Overall > budget:
			res.Breached = true
			res.Reason = fmt.Sprintf("budget exhausted: bad fraction %.4g > %.4g", res.Overall, budget)
		case nWin >= fastN && res.FastBurn >= fastBurn && res.SlowBurn >= slowBurn:
			res.Breached = true
			res.Reason = fmt.Sprintf("burn rate: fast %.3g ≥ %.3g and slow %.3g ≥ %.3g",
				res.FastBurn, fastBurn, res.SlowBurn, slowBurn)
		}
		results = append(results, res)
	}
	return results, nil
}

// Breached reports whether any result breached.
func Breached(results []Result) bool {
	for _, r := range results {
		if r.Breached {
			return true
		}
	}
	return false
}

// Parse decodes a declarative objective list: a JSON array of
// Objective objects, strictly (unknown fields are errors, so a typo'd
// threshold can never silently vanish).
func Parse(data []byte) ([]Objective, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var objs []Objective
	if err := dec.Decode(&objs); err != nil {
		return nil, fmt.Errorf("slo: invalid objectives JSON: %v", err)
	}
	if dec.More() {
		return nil, errors.New("slo: trailing data after objectives array")
	}
	for i := range objs {
		if err := objs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return objs, nil
}

// WriteTable prints one line per result — the rampload summary's SLO
// section.
func WriteTable(w io.Writer, results []Result) {
	for _, r := range results {
		verdict := "ok"
		if r.Breached {
			verdict = "BREACH"
		}
		fmt.Fprintf(w, "  %-24s %-8s budget=%-8.4g bad=%-8.4g burn=%-7.3g fast=%-7.3g slow=%-7.3g %s",
			r.Name, r.Kind, r.Budget, r.Overall, r.Burn, r.FastBurn, r.SlowBurn, verdict)
		if r.Reason != "" {
			fmt.Fprintf(w, "  (%s)", r.Reason)
		}
		fmt.Fprintln(w)
	}
}
