package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed cumulative bucket layout
// (Prometheus semantics: bucket i counts observations ≤ Buckets[i], with
// an implicit +Inf bucket at the end).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	total  atomic.Uint64
}

// DefBuckets is a general-purpose layout for durations in seconds,
// spanning 100µs to ~2 minutes.
var DefBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// FastBuckets is a layout for sub-millisecond spans — dense GEMM/QR
// calls at solver block shapes — spanning 1µs to 0.5s. DefBuckets starts
// at 100µs and would lump most such observations into its first bucket.
var FastBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts by linear interpolation inside the bucket the rank falls in —
// the same estimate Prometheus's histogram_quantile computes server-
// side. Observations beyond the last finite bound clamp to that bound.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	// Snapshot the counts once; concurrent Observe calls may skew the
	// estimate by a sample, which is fine for diagnostics.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	// NaN slips through both ordered comparisons below and would poison
	// the rank arithmetic into a NaN estimate; treat it like an empty
	// histogram instead of propagating it into JSON output.
	if math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: the best available answer is the last bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-(cum-float64(c)))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// metric unifies the metric kinds for registry output.
type metric struct {
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
	gf   func() float64
}

// Registry is a concurrency-safe named collection of metrics. Metric
// handles are created once (get-or-create) and then updated lock-free
// with atomics; only registration and output take the lock.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter returns the named counter, creating it on first use. A name
// registered as a different kind returns a detached (but safe) handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, func() *metric { return &metric{help: help, c: &Counter{}} })
	if m.c == nil {
		return &Counter{}
	}
	return m.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, func() *metric { return &metric{help: help, g: &Gauge{}} })
	if m.g == nil {
		return &Gauge{}
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// collection time (WriteTo / Snapshot) instead of being pushed — the
// shape runtime statistics want, where the source of truth is the
// runtime itself and storing a copy would only let it go stale. fn must
// be safe for concurrent calls and must not touch the registry (it runs
// under the registry lock). Registering a name twice keeps the first
// function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.getOrCreate(name, help, func() *metric { return &metric{help: help, gf: fn} })
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending bucket upper bounds (nil selects DefBuckets). The
// layout is fixed at creation; later calls reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, func() *metric {
		b := buckets
		if len(b) == 0 {
			b = DefBuckets
		}
		bounds := append([]float64(nil), b...)
		return &metric{help: help, h: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	})
	if m.h == nil {
		return &Histogram{counts: make([]atomic.Uint64, 1)}
	}
	return m.h
}

// CounterVec is a family of counters distinguished by one label value —
// the per-kernel dispatch counters the SpMM and dense engines emit.
// Each label lazily materializes a plain counter named
// "<base>_<label>_total", so the family needs no label support in the
// exposition formats. Handles are cached: With is lock-free after the
// first call for a given label.
type CounterVec struct {
	r          *Registry
	base, help string
	handles    sync.Map // label → *Counter
}

// CounterVec returns a counter family rooted at base (no "_total"
// suffix; With appends it after the label).
func (r *Registry) CounterVec(base, help string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, base: base, help: help}
}

// With returns the counter for the given label value, creating it on
// first use. Nil-safe: a nil family hands back a nil (no-op) counter.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.handles.Load(label); ok {
		return c.(*Counter)
	}
	c := v.r.Counter(v.base+"_"+label+"_total", v.help+" ["+label+"]")
	actual, _ := v.handles.LoadOrStore(label, c)
	return actual.(*Counter)
}

func (r *Registry) getOrCreate(name, help string, mk func() *metric) *metric {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[name]; m == nil {
		m = mk()
		r.metrics[name] = m
	}
	return m
}

// WriteTo renders the registry in the Prometheus text exposition format,
// metrics sorted by name.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	metrics := make([]*metric, len(names))
	for i, name := range names {
		metrics[i] = r.metrics[name]
	}
	r.mu.RUnlock()

	var n int64
	p := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	for i, name := range names {
		m := metrics[i]
		if m.help != "" {
			if err := p("# HELP %s %s\n", name, m.help); err != nil {
				return n, err
			}
		}
		var err error
		switch {
		case m.c != nil:
			if err = p("# TYPE %s counter\n", name); err == nil {
				err = p("%s %v\n", name, m.c.Value())
			}
		case m.g != nil:
			if err = p("# TYPE %s gauge\n", name); err == nil {
				err = p("%s %v\n", name, m.g.Value())
			}
		case m.gf != nil:
			if err = p("# TYPE %s gauge\n", name); err == nil {
				err = p("%s %v\n", name, m.gf())
			}
		case m.h != nil:
			if err = p("# TYPE %s histogram\n", name); err != nil {
				return n, err
			}
			var cum uint64
			for bi, bound := range m.h.bounds {
				cum += m.h.counts[bi].Load()
				if err = p("%s_bucket{le=%q} %d\n", name, formatBound(bound), cum); err != nil {
					return n, err
				}
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			if err = p("%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return n, err
			}
			if err = p("%s_sum %v\n", name, m.h.Sum()); err != nil {
				return n, err
			}
			err = p("%s_count %d\n", name, m.h.Count())
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// Snapshot returns a plain map view of the registry (histograms as
// {count, sum}), the form the expvar bridge publishes.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, m := range r.metrics {
		switch {
		case m.c != nil:
			out[name] = m.c.Value()
		case m.g != nil:
			out[name] = m.g.Value()
		case m.gf != nil:
			out[name] = m.gf()
		case m.h != nil:
			out[name] = map[string]any{"count": m.h.Count(), "sum": m.h.Sum()}
		}
	}
	return out
}

var expvarPublished sync.Map // name → struct{}

// PublishExpvar exposes the registry under the given expvar name
// (visible at /debug/vars). Idempotent per name.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	if _, loaded := expvarPublished.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
