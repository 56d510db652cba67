// Package metrics is InstantDB's dependency-free observability core: a
// registry of counters, gauges and fixed-bucket latency histograms with
// Prometheus text exposition (expose.go) and a flat key→value snapshot
// for the wire Stats opcode.
//
// Design constraints, in order:
//
//   - Allocation-free on hot paths. Every instrument is a fixed set of
//     atomics; Observe/Inc/Add never allocate and never take a lock.
//     Label lookups (CounterVec.With) do take a read lock, so hot paths
//     resolve their instrument once and cache the pointer (the engine
//     caches per-purpose counters on the session).
//   - Nil-safe. Every method no-ops on a nil receiver and every
//     constructor on a nil *Registry returns nil, so a component built
//     without a registry needs no branches of its own and pays only an
//     untaken branch per event.
//   - Readable while written. Exposition readers see each atomic once;
//     a histogram's _count is computed as the sum of the bucket reads,
//     so buckets and count are mutually consistent in every scrape even
//     under concurrent writers (_sum is read separately and may trail
//     by in-flight observations — it converges when writers pause).
//
// Collect-time instruments (CounterFunc, GaugeFunc, GaugeFuncVec) read
// state the owning subsystem already maintains — degradation lag, queue
// depths, replication positions — so instrumentation never duplicates
// bookkeeping (ISSUE 6 satellite: tests and production read the same
// numbers).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates metric families.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// DefBuckets are the default latency histogram bounds in seconds:
// 100µs to 10s, roughly ×2.5 per step — wide enough for an in-memory
// point select and a spinning-disk fsync on the same scale.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// family is one metric name: help text, type, and its series (one per
// label value; "" for an unlabeled metric).
type family struct {
	name   string
	help   string
	kind   kind
	label  string    // label keys for vec families, comma-separated ("" = unlabeled)
	keys   []string  // label split at its commas
	bounds []float64 // histogram bucket upper bounds (seconds)

	mu     sync.RWMutex
	series map[string]any // label values, joined by labelSep → *Counter | *Gauge | *Histogram

	// Collect-time callbacks (exclusive with series).
	valueFn func() float64
	vecFn   func(emit func(labelValue string, v float64))
}

// Registry holds metric families in registration order. All methods are
// safe for concurrent use; constructors are idempotent — asking for an
// existing name returns the existing instrument (and panics if the
// name was first registered as a different type, a programming error).
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (registering if needed) the family for name, enforcing
// type agreement.
func (r *Registry) family(name, help string, k kind, label string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, label: label, bounds: bounds,
		series: make(map[string]any)}
	if label != "" {
		f.keys = strings.Split(label, ",")
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// labelSep joins the label values of one series of a family labelled by
// several keys. No valid UTF-8 string contains it.
const labelSep = "\xff"

// instrument returns (creating if needed) the series for one label value
// (several joined by labelSep).
func (f *family) instrument(labelValue string, mk func() any) any {
	f.mu.RLock()
	in, ok := f.series[labelValue]
	f.mu.RUnlock()
	if ok {
		return in
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.series[labelValue]; ok {
		return in
	}
	in = mk()
	f.series[labelValue] = in
	return in
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, "", nil)
	return f.instrument("", func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family keyed by one label, or by several.
type CounterVec struct{ f *family }

// With returns the counter for one value per label key, in the order
// the family names its keys. Resolve once and cache the pointer on hot
// paths — With takes a read lock.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.instrument(strings.Join(values, labelSep), func() any { return &Counter{} }).(*Counter)
}

// CounterVec returns the labeled counter family registered under name;
// label names its keys, comma-separated ("table,attr").
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, label, nil)}
}

// Gauge is an integer-valued instantaneous measurement (active
// connections, open transactions). Float-valued gauges computed from
// existing state use GaugeFunc instead.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, "", nil)
	return f.instrument("", func() any { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter whose value is computed at collect
// time from state the owning subsystem already maintains (e.g. the
// degradation engine's transition atomics). fn must be safe for
// concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindCounter, "", nil)
	f.valueFn = fn
}

// GaugeFunc registers a gauge computed at collect time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGauge, "", nil)
	f.valueFn = fn
}

// GaugeFuncVec registers a labeled gauge family enumerated at collect
// time: fn emits one sample per label value (e.g. per-table degradation
// lag — tables appear and disappear, so the series set is dynamic).
func (r *Registry) GaugeFuncVec(name, help, label string, fn func(emit func(labelValue string, v float64))) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGauge, label, nil)
	f.vecFn = fn
}

// Histogram is a fixed-bucket latency histogram. Observations are
// durations; bounds are seconds. The zero bucket layout has len(bounds)
// finite buckets plus +Inf.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64    // nanoseconds
}

// Observe records one duration. Lock-free and allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in seconds by linear
// interpolation within the landing bucket, the standard fixed-bucket
// estimator (Prometheus histogram_quantile): the bucket atomics are
// snapshotted once, the rank q·count is located in the cumulative
// distribution, and the result interpolates between the bucket's lower
// and upper bound. Observations in the +Inf bucket clamp to the
// highest finite bound — fixed buckets cannot see past it. Returns 0 on
// an empty or nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: the best a fixed layout can say.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Histogram returns the latency histogram registered under name.
// buckets are upper bounds in seconds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindHistogram, "", buckets)
	return f.instrument("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec is a latency histogram family keyed by one label, or by
// several.
type HistogramVec struct{ f *family }

// With returns the histogram for one value per label key, in the order
// the family names its keys (read lock; cache the pointer on hot paths).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.instrument(strings.Join(values, labelSep), func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// HistogramVec returns the labeled histogram family registered under
// name; label names its keys, comma-separated ("table,attr"). buckets
// are upper bounds in seconds (nil = DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, label, buckets)}
}
