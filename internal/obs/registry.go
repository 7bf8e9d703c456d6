package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ---- primitives ----

// Counter is a monotonically increasing event count. One atomic add per
// increment; safe for concurrent use from any number of goroutines.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value (in-flight requests, pending
// rows). Safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with a CAS loop — the histogram sum.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at registration.
// An observation costs one binary search over the bounds plus two atomic
// writes; there is no locking, so the hot scan path can observe freely.
type Histogram struct {
	bounds []float64       // finite upper bounds, strictly increasing
	counts []atomic.Uint64 // len(bounds)+1; last entry is the +Inf bucket
	sum    atomicFloat
}

// Observe records one value. Bucket i holds observations v <= bounds[i]
// (Prometheus "le" semantics); values above every bound land in +Inf.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative) and Count is their total, so
// cumulative exposition derived from one snapshot is internally
// consistent by construction.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state. Each bucket is read atomically;
// under concurrent observation the snapshot is a consistent lower bound
// per bucket (counts only grow).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Merge adds another snapshot's buckets into this one; the bounds must be
// identical (children of one HistogramVec always are).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(s.Counts) == 0 {
		*s = o
		s.Counts = append([]uint64(nil), o.Counts...)
		return
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// interpolating linearly within the bucket that crosses the target rank —
// the same estimator as Prometheus's histogram_quantile. Observations in
// the +Inf bucket resolve to the highest finite bound. Returns 0 for an
// empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous — the fixed layout every
// histogram in the registry uses.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 10µs to ~5.2s in doubling steps — wide
// enough for sub-millisecond parse stages and multi-second full-sample
// scans alike. Latencies are recorded in seconds.
var DefaultLatencyBuckets = ExpBuckets(10e-6, 2, 20)

// ---- families and registry ----

// Sample is one dynamically collected metric value (see CounterFuncVec):
// label values in registration order plus the value at scrape time.
type Sample struct {
	Labels []string
	Value  float64
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric name: its metadata plus either static children
// (one per label-value combination) or a scrape-time collector.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	bounds     []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
	collect  func() []Sample // func families; nil for static ones
}

type child struct {
	labels []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first registration.
// Re-registering with the same type, label names and bounds returns the
// existing family (get-or-create); any mismatch panics — a metric name
// must mean one thing for the life of the process.
func (r *Registry) family(name, help, typ string, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type, label set or buckets", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		children:   make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values with a separator that cannot appear in a
// well-formed label value.
func childKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) child(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok = f.children[key]; ok {
		return ch
	}
	ch = &child{labels: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		ch.c = &Counter{}
	case typeGauge:
		ch.g = &Gauge{}
	case typeHistogram:
		ch.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.children[key] = ch
	return ch
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).child(nil).c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).child(nil).g
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket bounds (nil selects DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return r.family(name, help, typeHistogram, nil, bounds).child(nil).h
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labelNames, nil)}
}

// With returns the counter for one label-value combination, creating it
// on first use. Callers on hot paths should capture the child once.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.child(labelValues).c }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labelNames, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.child(labelValues).g }

// HistogramVec is a histogram family partitioned by labels; every child
// shares the family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family (nil
// bounds selects DefaultLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labelNames, bounds)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.child(labelValues).h }

// MergedSnapshot sums every child's buckets into one snapshot — the
// whole-family distribution /stats derives its quantiles from.
func (v *HistogramVec) MergedSnapshot() HistogramSnapshot {
	v.f.mu.RLock()
	children := make([]*child, 0, len(v.f.children))
	for _, ch := range v.f.children {
		children = append(children, ch)
	}
	v.f.mu.RUnlock()
	out := HistogramSnapshot{Bounds: v.f.bounds, Counts: make([]uint64, len(v.f.bounds)+1)}
	for _, ch := range children {
		s := ch.h.Snapshot()
		out.Merge(s)
	}
	return out
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for values the system already tracks elsewhere (in-flight slots,
// retained generations) that would be redundant to mirror.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.collect = func() []Sample { return []Sample{{Value: fn()}} }
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read at scrape time. The
// source must be monotone for the exposition to be a well-formed counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeCounter, nil, nil)
	f.mu.Lock()
	f.collect = func() []Sample { return []Sample{{Value: fn()}} }
	f.mu.Unlock()
}

// GaugeFuncVec registers a labeled gauge family collected at scrape time:
// collect returns one Sample per label-value combination. Unlike a static
// GaugeVec, the label set may change between scrapes — the per-partition
// sample gauges use this, since a rebuild can change the partition count.
func (r *Registry) GaugeFuncVec(name, help string, labelNames []string, collect func() []Sample) {
	f := r.family(name, help, typeGauge, labelNames, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// CounterFuncVec registers a labeled counter family collected at scrape
// time: collect returns one Sample per label-value combination (the scan
// memo's per-outcome counters use this — the memo already counts with its
// own atomics).
func (r *Registry) CounterFuncVec(name, help string, labelNames []string, collect func() []Sample) {
	f := r.family(name, help, typeCounter, labelNames, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}
