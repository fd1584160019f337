// Windowed instruments: time-sliced views over the cumulative metrics
// Registry. The registry's counters and histograms only ever go up —
// perfect for end-of-run summaries, useless for "what is the shed rate
// *right now*". A Window turns the cumulative snapshots into a ring of
// timestamped deltas: each Advance subtracts the previous cumulative
// snapshot from the current one, yielding a per-window Snapshot whose
// counters are "events this window" and whose histograms hold only this
// window's observations (a delta of cumulative bucket counts is itself
// a valid cumulative-bucket histogram). rampserve's /v1/metrics/stream
// and rampload's NDJSON telemetry are both Window consumers; the SLO
// burn-rate gate (internal/slo) evaluates objectives over the retained
// ring.
//
// The clock is injectable so tests (and the deterministic plan mode)
// can drive windows without wall time. None of this touches the
// lock-free write paths: windows only read Registry.Snapshot.
package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// leBounds returns the histogram's finite bucket upper bounds in
// increasing order (the "+Inf" catch-all is excluded).
func (h HistogramSnapshot) leBounds() []int64 {
	bounds := make([]int64, 0, len(h.Buckets))
	for le := range h.Buckets {
		if le == "+Inf" {
			continue
		}
		if b, err := strconv.ParseInt(le, 10, 64); err == nil {
			bounds = append(bounds, b)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// bucketLow returns the lower edge of the log2 bucket with upper bound
// ub: Observe puts v in the bucket [2^(i-1), 2^i) (the first bucket,
// upper bound 1, holds v = 0).
func bucketLow(ub int64) float64 {
	if ub <= 1 {
		return 0
	}
	return float64(ub) / 2
}

// Quantile estimates the p-quantile (p in [0, 1]) of the observed
// values by linear interpolation inside the log2 buckets — the same
// estimate Prometheus' histogram_quantile computes. The estimate is
// exact at bucket edges and within a factor of 2 anywhere else (log2
// buckets); tests pin it against synthetic bucket contents. An empty
// histogram returns NaN. Observations in the catch-all bucket saturate
// the estimate at the largest finite bucket bound.
func (h HistogramSnapshot) Quantile(p float64) float64 {
	if h.Count <= 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cumBelow float64
	var last float64
	for _, ub := range h.leBounds() {
		cum := float64(h.Buckets[strconv.FormatInt(ub, 10)])
		if rank <= cum && cum > cumBelow {
			low := bucketLow(ub)
			frac := (rank - cumBelow) / (cum - cumBelow)
			return low + frac*(float64(ub)-low)
		}
		cumBelow = cum
		last = float64(ub)
	}
	// The remaining rank lives in the +Inf catch-all: report its lower
	// edge (the largest finite bound) — the estimate cannot do better.
	if last > 0 {
		return last
	}
	return float64(int64(1) << 62)
}

// FractionAbove estimates the fraction of observations strictly above
// v, interpolating linearly inside the bucket containing v. This is how
// a latency SLO ("p99 ≤ 200ms") becomes a countable bad-event rate
// ("fraction of requests slower than 200ms must stay under 1%") for the
// burn-rate math in internal/slo. An empty histogram returns 0.
func (h HistogramSnapshot) FractionAbove(v float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	var below float64
	var cumBelow float64
	for _, ub := range h.leBounds() {
		cum := float64(h.Buckets[strconv.FormatInt(ub, 10)])
		if v >= float64(ub) {
			below = cum
			cumBelow = cum
			continue
		}
		low := bucketLow(ub)
		in := cum - cumBelow
		if v > low && in > 0 {
			below = cumBelow + in*(v-low)/(float64(ub)-low)
		}
		break
	}
	frac := 1 - below/float64(h.Count)
	if frac < 0 {
		return 0
	}
	return frac
}

// prevCumAt reconstructs a snapshot's cumulative count at bucket bound
// ub from its (possibly trimmed) bucket map: snapshot() omits leading
// all-zero buckets and stops once the cumulative count saturates, so a
// missing bound below the first present one is 0 and a missing bound
// above the last present one is Count.
func (h HistogramSnapshot) prevCumAt(ub int64, bounds []int64) int64 {
	if h.Count == 0 || len(bounds) == 0 {
		return 0
	}
	if ub < bounds[0] {
		return 0
	}
	if c, ok := h.Buckets[strconv.FormatInt(ub, 10)]; ok {
		return c
	}
	return h.Count
}

// sub returns the histogram delta h − prev (prev must be an earlier
// snapshot of the same histogram, so every cumulative value of h is ≥
// the corresponding value of prev). The delta is itself a well-formed
// HistogramSnapshot over just the observations between the two
// snapshots, so Quantile and FractionAbove work per window.
func (h HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	if d.Count <= 0 || len(h.Buckets) == 0 {
		return d
	}
	prevBounds := prev.leBounds()
	d.Buckets = make(map[string]int64)
	var wrote int64
	for _, ub := range h.leBounds() {
		le := strconv.FormatInt(ub, 10)
		cum := h.Buckets[le] - prev.prevCumAt(ub, prevBounds)
		if cum <= 0 {
			continue
		}
		d.Buckets[le] = cum
		wrote = cum
		if cum == d.Count {
			break
		}
	}
	if inf, ok := h.Buckets["+Inf"]; ok && wrote < d.Count {
		prevInf := prev.Count // saturation: prev's +Inf cum is its total
		if c, ok := prev.Buckets["+Inf"]; ok {
			prevInf = c
		}
		if cum := inf - prevInf; cum > 0 {
			d.Buckets["+Inf"] = cum
		}
	}
	return d
}

// Merge returns one histogram holding both snapshots' observations
// (used to combine per-window deltas back into a multi-window view).
func (h HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if o.Count == 0 {
		return h
	}
	if h.Count == 0 {
		return o
	}
	m := HistogramSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	hb, ob := h.leBounds(), o.leBounds()
	seen := make(map[int64]bool, len(hb)+len(ob))
	bounds := make([]int64, 0, len(hb)+len(ob))
	for _, b := range append(append([]int64{}, hb...), ob...) {
		if !seen[b] {
			seen[b] = true
			bounds = append(bounds, b)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	m.Buckets = make(map[string]int64)
	var wrote int64
	for _, ub := range bounds {
		cum := h.prevCumAt(ub, hb) + o.prevCumAt(ub, ob)
		if cum <= 0 {
			continue
		}
		m.Buckets[strconv.FormatInt(ub, 10)] = cum
		wrote = cum
		if cum == m.Count {
			break
		}
	}
	if wrote < m.Count {
		m.Buckets["+Inf"] = m.Count
	}
	return m
}

// Delta returns the change from prev to s: counters and histograms
// subtract (prev must be an earlier snapshot of the same registry);
// gauges carry s's latest value — a gauge has no meaningful rate.
// Instruments absent from prev (registered mid-flight) delta against
// zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	if len(s.Counters) > 0 {
		d.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			d.Counters[name] = v - prev.Counters[name]
		}
	}
	if len(s.Gauges) > 0 {
		d.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			d.Gauges[name] = v
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			d.Histograms[name] = h.sub(prev.Histograms[name])
		}
	}
	return d
}

// WindowDelta is one window's worth of change: the instruments' deltas
// between two timestamped cumulative snapshots.
type WindowDelta struct {
	Seq   int64     `json:"seq"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Delta Snapshot  `json:"delta"`
}

// Seconds returns the window length.
func (d WindowDelta) Seconds() float64 { return d.End.Sub(d.Start).Seconds() }

// Rate returns the named counter's per-second rate over this window (0
// for a zero-length window).
func (d WindowDelta) Rate(counter string) float64 {
	sec := d.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(d.Delta.Counters[counter]) / sec
}

// Window retains a bounded ring of timestamped Snapshot deltas. One
// goroutine Advances it on a cadence (a ticker, or an injected clock in
// tests); any goroutine may read the retained deltas. The zero Window
// is not usable; construct with NewWindow.
type Window struct {
	mu     sync.Mutex
	clock  func() time.Time
	ring   []WindowDelta
	head   int // index of the oldest retained delta
	n      int // retained count
	seq    int64
	prev   Snapshot
	prevAt time.Time
	primed bool
}

// NewWindow returns a window retaining up to capacity deltas (minimum
// 1). clock supplies timestamps; nil means time.Now.
func NewWindow(capacity int, clock func() time.Time) *Window {
	if capacity < 1 {
		capacity = 1
	}
	if clock == nil {
		clock = time.Now
	}
	return &Window{clock: clock, ring: make([]WindowDelta, capacity)}
}

// Prime records s as the baseline cumulative snapshot without emitting
// a delta, so the first Advance measures only what happened after
// Prime. An unprimed window's first Advance deltas against the zero
// snapshot (process start).
func (w *Window) Prime(s Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prev = s
	w.prevAt = w.clock()
	w.primed = true
}

// Advance ingests the next cumulative snapshot, appends the delta since
// the previous one to the ring (evicting the oldest past capacity) and
// returns it.
func (w *Window) Advance(s Snapshot) WindowDelta {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.clock()
	if !w.primed {
		w.prevAt = now
		w.primed = true
	}
	w.seq++
	d := WindowDelta{Seq: w.seq, Start: w.prevAt, End: now, Delta: s.Delta(w.prev)}
	w.prev = s
	w.prevAt = now
	if w.n < len(w.ring) {
		w.ring[(w.head+w.n)%len(w.ring)] = d
		w.n++
	} else {
		w.ring[w.head] = d
		w.head = (w.head + 1) % len(w.ring)
	}
	return d
}

// Observe snapshots the registry and Advances the window.
func (w *Window) Observe(r *Registry) WindowDelta { return w.Advance(r.Snapshot()) }

// Len returns the number of retained deltas.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Deltas returns the retained deltas, oldest first (a copy; safe to
// hold across further Advances).
func (w *Window) Deltas() []WindowDelta {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WindowDelta, w.n)
	for i := 0; i < w.n; i++ {
		out[i] = w.ring[(w.head+i)%len(w.ring)]
	}
	return out
}

// Rate returns the named counter's per-second rate across every
// retained window (total delta over total retained time).
func (w *Window) Rate(counter string) float64 {
	all := w.Deltas()
	if len(all) == 0 {
		return 0
	}
	var total int64
	for _, d := range all {
		total += d.Delta.Counters[counter]
	}
	sec := all[len(all)-1].End.Sub(all[0].Start).Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(total) / sec
}
