// Package metrics is a dependency-free observability layer rendering in
// the Prometheus text exposition format. It covers the shapes the serving
// layer needs — monotonic counters (plain and labeled), fixed-bucket
// latency histograms, and gauges sampled at scrape time — without pulling
// in a client library: the repo's no-new-dependencies rule and the small
// metric inventory make a hand-rolled registry the right trade.
//
// All mutation paths are lock-free (atomics) except labeled-counter child
// creation, which takes a mutex once per new label value. Rendering takes
// a snapshot under the registry lock and is safe to call concurrently
// with updates.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must keep counters monotonic; negative deltas are
// a programming error and are ignored).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter partitioned by one or more label values. Child
// counters are created on first use and live for the registry's lifetime,
// so label values must be low-cardinality (request kinds, status classes —
// never session names or user input).
type CounterVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label values (one per
// declared label, in order).
func (cv *CounterVec) With(values ...string) *Counter {
	if len(values) != len(cv.labels) {
		panic(fmt.Sprintf("metrics: counter vec has labels %v, got %d values", cv.labels, len(values)))
	}
	key := strings.Join(values, "\x00")
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c, ok := cv.children[key]
	if !ok {
		c = &Counter{}
		cv.children[key] = c
	}
	return c
}

// Histogram is a fixed-bucket cumulative histogram of float64
// observations (the Prometheus histogram shape: le-labeled cumulative
// bucket counts plus _sum and _count). Buckets are set at registration
// and never change.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSeconds records a duration in seconds, the Prometheus base unit
// for time.
func (h *Histogram) ObserveSeconds(d time.Duration) { h.Observe(d.Seconds()) }

// DefBuckets spans microseconds to seconds — wide enough for both WAL
// fsync appends (~ms) and cold session warms (~100ms+).
var DefBuckets = []float64{
	0.000025, 0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 1, 2.5, 10,
}

// GaugeFunc is sampled at scrape time; use it for values owned elsewhere
// (live session count, head versions) instead of mirroring them into the
// registry on every change.
type GaugeFunc func() float64

// metric is one registered family, in registration order.
type metric struct {
	name, help string
	counter    *Counter
	vec        *CounterVec
	hist       *Histogram
	gauge      GaugeFunc
}

// Registry holds registered metrics and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic("metrics: duplicate metric name " + m.name)
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, counter: c})
	return c
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{labels: labels, children: make(map[string]*Counter)}
	r.add(&metric{name: name, help: help, vec: cv})
	return cv
}

// NewHistogram registers and returns a histogram with the given ascending
// upper bounds (nil means DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending: " + name)
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.add(&metric{name: name, help: help, hist: h})
	return h
}

// NewGaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn GaugeFunc) {
	r.add(&metric{name: name, help: help, gauge: fn})
}

// fmtFloat renders a float the way Prometheus clients do: integral values
// without an exponent, otherwise shortest round-trip form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteTo renders every registered metric in the Prometheus text format,
// families in registration order, label sets sorted within a family.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*metric, len(r.metrics))
	copy(fams, r.metrics)
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Value())
		case m.vec != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			m.vec.mu.Lock()
			keys := make([]string, 0, len(m.vec.children))
			for k := range m.vec.children {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				vals := strings.Split(k, "\x00")
				pairs := make([]string, len(vals))
				for i, v := range vals {
					pairs[i] = fmt.Sprintf(`%s=%q`, m.vec.labels[i], escapeLabel(v))
				}
				fmt.Fprintf(&b, "%s{%s} %d\n", m.name, strings.Join(pairs, ","), m.vec.children[k].Value())
			}
			m.vec.mu.Unlock()
		case m.hist != nil:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			var cum uint64
			for i, bound := range m.hist.bounds {
				cum += m.hist.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", m.name, fmtFloat(bound), cum)
			}
			cum += m.hist.counts[len(m.hist.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			sum := math.Float64frombits(m.hist.sum.Load())
			fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", m.name, fmtFloat(sum), m.name, cum)
		case m.gauge != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m.name, m.name, fmtFloat(m.gauge()))
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
