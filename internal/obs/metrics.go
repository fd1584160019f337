package obs

import (
	"fmt"
	"io"
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
// cumulative counts keyed by upper bound ("2", "4", ..., "+Inf"), the
// Prometheus le convention; empty prefixes are omitted.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets_le,omitempty"`
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
	if s.Count == 0 {
		return s
	}
	s.Buckets = make(map[string]int64)
	var cum int64
	for i := 0; i < histogramBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum == 0 {
			continue
		}
		le := "+Inf"
		if i < histogramBuckets-1 {
			le = strconv.FormatInt(1<<i, 10)
		}
		s.Buckets[le] = cum
		if cum == s.Count {
			break // every remaining bucket repeats the total
		}
	}
	return s
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
	bounds := make([]string, 0, len(h.Buckets))
	for le := range h.Buckets {
		if le != "+Inf" {
			bounds = append(bounds, le)
		}
	}
	sort.Slice(bounds, func(i, j int) bool {
		a, _ := strconv.ParseInt(bounds[i], 10, 64)
		b, _ := strconv.ParseInt(bounds[j], 10, 64)
		return a < b
	})
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, le := range bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", family, labels, sep, le, h.Buckets[le])
	}
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
