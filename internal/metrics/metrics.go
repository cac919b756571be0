// Package metrics is a dependency-free instrumentation registry for the
// simulation service: counters, gauges, and fixed-bucket histograms, each
// optionally labeled, rendered in the Prometheus text exposition format
// (with # HELP / # TYPE headers, escaped label values, and a stable line
// order).
//
// The paper's algorithms are randomized — decision rounds, broadcast
// counts, and therefore wallclock are distributions, not points — so the
// histogram is the primary instrument: per-preset latency distributions
// answer "where does a job's time go?" in a way a gauge never can.
//
// Concurrency: every instrument is safe for concurrent use (atomic
// counters and bucket cells); registration and label-set creation take the
// registry lock. Label cardinality is bounded per labeled family by
// Registry.SeriesCap — once a family holds that many series, further label
// combinations collapse onto a shared overflow series labeled "_overflow"
// instead of growing without bound (a fleet with worker churn must not
// leak a series per dead worker name), and the registry counts the drops.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSeriesCap bounds the label-set cardinality of one labeled family
// unless the registry overrides it.
const DefaultSeriesCap = 256

// overflowLabel is the label value every rejected label combination
// collapses onto once a family reaches its series cap.
const overflowLabel = "_overflow"

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Kind is an instrument family's type, named as the exposition format
// spells it.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds instrument families and renders them. Construct with
// NewRegistry; the zero value is not usable.
type Registry struct {
	// SeriesCap bounds each labeled family's series count (applied at
	// family creation; default DefaultSeriesCap). Set it before creating
	// vecs.
	SeriesCap int

	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; rendering sorts a copy
	collect  []func() // run before every render
	dropped  atomic.Int64
}

// family is one named metric: a fixed kind, help text, label schema, and
// its series (one for the unlabeled case).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string  // nil for unlabeled
	buckets []float64 // histograms only; ascending, without +Inf
	cap     int

	mu     sync.Mutex
	series map[string]*series // keyed by joined label values
	order  []string
}

// series is one (labelValues, value) cell. Counter and gauge use val;
// histograms use counts/sum.
type series struct {
	labelValues []string
	val         atomicFloat
	counts      []atomic.Int64 // per bucket, non-cumulative; last = +Inf
	sum         atomicFloat
	gaugeFn     func() float64 // callback gauges
}

// atomicFloat is a float64 with atomic add/store via bit casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}
func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{SeriesCap: DefaultSeriesCap, families: make(map[string]*family)}
}

// DroppedSeries returns how many instrument acquisitions were collapsed
// onto an overflow series because their family hit its cardinality cap.
func (r *Registry) DroppedSeries() int64 { return r.dropped.Load() }

// OnCollect registers a hook run before every render — the place to
// refresh gauges computed from external state (queue depths, per-worker
// heartbeat ages) at scrape time rather than on every change.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = append(r.collect, fn)
}

func (r *Registry) runCollect() {
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// register creates or fetches a family, enforcing one kind per name. A
// name or schema conflict panics: instrument registration is programmer
// error territory, exactly like prometheus/client_golang.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %q re-registered with a different schema", name))
		}
		return f
	}
	cap := r.SeriesCap
	if cap <= 0 {
		cap = DefaultSeriesCap
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		cap:     cap,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// seriesFor fetches or creates the series for the given label values,
// collapsing onto the overflow series past the family cap.
func (f *family) seriesFor(r *Registry, values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= f.cap {
		r.dropped.Add(1)
		over := make([]string, len(f.labels))
		for i := range over {
			over[i] = overflowLabel
		}
		okey := strings.Join(over, "\xff")
		if s, ok := f.series[okey]; ok {
			return s
		}
		s := f.newSeries(over)
		f.series[okey] = s
		f.order = append(f.order, okey)
		return s
	}
	s := f.newSeries(append([]string(nil), values...))
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

func (f *family) newSeries(values []string) *series {
	s := &series{labelValues: values}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Int64, len(f.buckets)+1) // +Inf cell last
	}
	return s
}

// Counter is a monotonically increasing count.
type Counter struct{ s *series }

// Inc adds 1.
func (c Counter) Inc() { c.s.val.Add(1) }

// Add adds d (negative deltas panic — counters only go up).
func (c Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decrease")
	}
	c.s.val.Add(d)
}

// Value returns the current count.
func (c Counter) Value() float64 { return c.s.val.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g Gauge) Set(v float64) { g.s.val.Store(v) }

// Add adds d.
func (g Gauge) Add(d float64) { g.s.val.Add(d) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.s.val.Load() }

// Histogram is a fixed-bucket distribution: counts per upper bound plus a
// sum, rendered cumulatively with a +Inf bucket.
type Histogram struct {
	f *family
	s *series
}

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.buckets, v) // first bucket with bound >= v
	h.s.counts[i].Add(1)
	h.s.sum.Add(v)
}

// Count returns the total number of observations.
func (h Histogram) Count() int64 {
	var n int64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h Histogram) Sum() float64 { return h.s.sum.Load() }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return Counter{f.seriesFor(r, nil)}
}

// Gauge registers (or fetches) an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return Gauge{f.seriesFor(r, nil)}
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// render — for instantaneous values derived from live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	s := f.seriesFor(r, nil)
	s.gaugeFn = fn
}

// Histogram registers (or fetches) an unlabeled histogram over the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	checkBuckets(name, buckets)
	f := r.register(name, help, KindHistogram, nil, buckets)
	return Histogram{f, f.seriesFor(r, nil)}
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r, r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values.
func (v CounterVec) With(values ...string) Counter {
	return Counter{v.f.seriesFor(v.r, values)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r, r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) Gauge {
	return Gauge{v.f.seriesFor(v.r, values)}
}

// Reset drops every series in the family — for scrape-time gauges whose
// label population changes (e.g. the live-worker set), refreshed by an
// OnCollect hook.
func (v GaugeVec) Reset() {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	v.f.series = make(map[string]*series)
	v.f.order = nil
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec registers a labeled histogram family over the given bucket
// upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	checkBuckets(name, buckets)
	return HistogramVec{r, r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f, v.f.seriesFor(v.r, values)}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic(fmt.Sprintf("metrics: histogram %q must not include +Inf explicitly", name))
	}
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default duration histogram: 1ms to ~2 minutes in
// ×2 steps (18 buckets), in seconds.
var LatencyBuckets = ExpBuckets(0.001, 2, 18)
