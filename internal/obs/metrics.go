package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a named set of atomic instruments the pipeline stages
// register into. Lookup is get-or-create and idempotent, so every stage
// can resolve its instruments independently by name; hot paths resolve
// once and keep the pointer. A nil *Registry is the disabled registry:
// lookups return nil instruments whose methods are nil-check no-ops, so
// instrumented code needs no enabled/disabled branches.
//
// Instrument names must match Prometheus conventions
// ([a-zA-Z_][a-zA-Z0-9_]*) so one registry can feed the -stats summary,
// the /metrics JSON document and the Prometheus text exposition without
// renaming. Registering one name as two different instrument kinds
// panics — it is a programming error, caught by any test that touches
// the path.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing atomic counter. The nil
// *Counter discards updates.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil *Gauge discards
// updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histogramBuckets is the number of power-of-two histogram buckets.
// Bucket i counts observations v with v < 2^i (the last bucket is a
// catch-all), covering 1 .. 2^62 — wide enough for nanosecond latencies
// and for small counts alike.
const histogramBuckets = 64

// Histogram is a lock-free log2-bucketed histogram of non-negative
// int64 observations (iteration counts, microsecond latencies, ...).
// Writers atomically increment; readers snapshot. The nil *Histogram
// discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histogramBuckets]atomic.Int64
}

// Observe records one sample (negative samples clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 0
	for b := v; b > 0 && i < histogramBuckets-1; b >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reads the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Counter returns the named counter, creating it on first use. Nil
// registries return the nil (discarding) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		r.checkName(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		r.checkName(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		r.checkName(name, "histogram")
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// checkName panics on malformed or cross-kind duplicate names (called
// with r.mu held for writing).
func (r *Registry) checkName(name, kind string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-zA-Z_][a-zA-Z0-9_]*)", name))
	}
	for k, exists := range map[string]bool{
		"counter":   r.counters[name] != nil,
		"gauge":     r.gauges[name] != nil,
		"histogram": r.histograms[name] != nil,
	} {
		if exists && k != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s (requested %s)", name, k, kind))
		}
	}
}

// validMetricName reports whether name is a legal Prometheus metric
// name (without the colon extension).
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// HistogramSnapshot is one histogram's point-in-time state. Buckets are
// cumulative counts keyed by upper bound ("1", "2", "4", ..., "+Inf"),
// the Prometheus le convention, in trimmed form: from the first
// non-empty bucket to the first whose cumulative count reaches Count.
// cumulative is the map's one reader and eachBucket its one writer.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets_le,omitempty"`
}

// cumulative decodes Buckets into the cumulative count at each of the
// histogramBuckets bounds (index i is the bound 2^i, the last the
// catch-all, which reads Count). A bound missing below the first
// present one reads 0, and any other missing bound reads the count of
// the nearest present bound below it — Count above the last, since the
// trimmed form stops only once it reaches Count. Keys that name no
// bucket bound are ignored.
func (h HistogramSnapshot) cumulative() (c [histogramBuckets]int64) {
	var have [histogramBuckets]bool
	for le, n := range h.Buckets {
		b, err := strconv.ParseInt(le, 10, 64)
		if err != nil || b <= 0 || b&(b-1) != 0 {
			continue
		}
		i := bits.TrailingZeros64(uint64(b))
		c[i], have[i] = n, true
	}
	for i := 1; i < histogramBuckets-1; i++ {
		if !have[i] {
			c[i] = c[i-1]
		}
	}
	c[histogramBuckets-1] = h.Count
	return c
}

// eachBucket calls f, in increasing bound order, with the index, le
// key and count of each bucket the trimmed form of the cumulative
// counts c keeps for a histogram of count observations.
func eachBucket(c *[histogramBuckets]int64, count int64, f func(i int, le string, cum int64)) {
	for i, cum := range c {
		if cum <= 0 {
			continue
		}
		le := "+Inf"
		if i < histogramBuckets-1 {
			le = strconv.FormatInt(1<<i, 10)
		}
		f(i, le, cum)
		if cum == count {
			return // every remaining bucket repeats the total
		}
	}
}

// trimmedBuckets returns the trimmed le-keyed map of the cumulative
// counts c (nil when count is not positive).
func trimmedBuckets(c *[histogramBuckets]int64, count int64) map[string]int64 {
	if count <= 0 {
		return nil
	}
	m := make(map[string]int64)
	eachBucket(c, count, func(_ int, le string, cum int64) { m[le] = cum })
	return m
}

// Snapshot is a point-in-time copy of every instrument in the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values (JSON /metrics and the
// -stats summary both render from this).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	var c [histogramBuckets]int64
	var cum int64
	for i := range c {
		cum += h.buckets[i].Load()
		c[i] = cum
	}
	s.Buckets = trimmedBuckets(&c, s.Count)
	return s
}

// Delta returns the change from prev to s: counters and histograms
// subtract (prev must be an earlier snapshot of the same registry);
// gauges carry s's latest value — a gauge has no meaningful rate.
// Instruments absent from prev (registered mid-flight) delta against
// zero. Every telemetry window is one Delta of two cumulative
// snapshots: rampserve's stream frames, rampload's frames and the SLO
// gate's tails.
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

// sub returns the histogram delta h − prev (prev must be an earlier
// snapshot of the same histogram, so every cumulative count of h is ≥
// prev's). The delta is itself a well-formed HistogramSnapshot over
// just the observations between the two snapshots, so Quantile and
// FractionAbove work per window.
func (h HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	c, p := h.cumulative(), prev.cumulative()
	for i := range c {
		c[i] -= p[i]
	}
	d.Buckets = trimmedBuckets(&c, d.Count)
	return d
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
// histogram returns NaN. A rank in the catch-all bucket saturates the
// estimate at the upper bound of the highest occupied finite bucket
// (2^62 when there is none).
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
	c := h.cumulative()
	var cumBelow, last float64
	for i, n := range c[:histogramBuckets-1] {
		cum := float64(n)
		if cum > cumBelow {
			ub := int64(1) << i
			if rank <= cum {
				low := bucketLow(ub)
				frac := (rank - cumBelow) / (cum - cumBelow)
				return low + frac*(float64(ub)-low)
			}
			last = float64(ub)
		}
		cumBelow = cum
	}
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
	c := h.cumulative()
	var below, cumBelow float64
	for i, n := range c[:histogramBuckets-1] {
		cum := float64(n)
		ub := int64(1) << i
		if v >= float64(ub) {
			below, cumBelow = cum, cum
			continue
		}
		low := bucketLow(ub)
		if in := cum - cumBelow; v > low && in > 0 {
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

// WriteSummary prints a human-readable table of every instrument,
// sorted by name — the `-stats` end-of-run report.
func (r *Registry) WriteSummary(w io.Writer) {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "%-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "%-40s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if h.Count == 0 {
			fmt.Fprintf(w, "%-40s count=0 sum=0 mean=0.00\n", name)
			continue
		}
		mean := float64(h.Sum) / float64(h.Count)
		fmt.Fprintf(w, "%-40s count=%d sum=%d mean=%.2f p50=%g p95=%g p99=%g\n",
			name, h.Count, h.Sum, mean,
			h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
	}
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket series plus _sum and
// _count. prefix (e.g. "ramp_") namespaces every family.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "# TYPE %s%s counter\n%s%s %d\n", prefix, name, prefix, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "# TYPE %s%s gauge\n%s%s %d\n", prefix, name, prefix, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(w, "# TYPE %s%s histogram\n", prefix, name)
		WritePromHistogram(w, prefix+name, "", h)
	}
}

// WritePromHistogram emits one histogram family's _bucket/_sum/_count
// samples. labels, when non-empty, is a rendered label set without
// braces (e.g. `route="evaluate"`).
func WritePromHistogram(w io.Writer, family, labels string, h HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	c := h.cumulative()
	eachBucket(&c, h.Count, func(i int, le string, cum int64) {
		if i < histogramBuckets-1 {
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", family, labels, sep, le, cum)
		}
	})
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", family, labels, sep, h.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %d\n", family, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", family, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", family, labels, h.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, h.Count)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
