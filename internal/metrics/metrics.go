// Package metrics is the serving stack's one metrics registry: atomic
// counters, label-keyed counters and histograms, functions sampled at
// scrape time, one text encoder and one /metrics handler. Both tiers
// (internal/simserve, internal/cluster) register what they count here
// instead of hand-writing the page.
//
// The page is plain text, one `name value` or `name{label="v",...} value`
// line per sample (label values %q-quoted). Metrics render in
// registration order; the children of a labelled metric render in sorted
// label order, so a page is a deterministic function of the counts.
package metrics

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nexsim/internal/stats"
)

// Metric is anything a Registry can render.
type Metric interface{ encode(e *Encoder) }

// Registry is an ordered set of metrics and the handler that serves it.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Register appends metrics to the page. A component that must exist
// without a registry (cluster.Admission, cluster.Membership) builds its
// counters with NewCounter/NewCounterVec and is registered by whoever
// adopts it.
func (r *Registry) Register(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, ms...)
}

// Counter registers a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := NewCounter(name)
	r.Register(c)
	return c
}

// CounterVec registers a new counter family keyed by one label.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	v := NewCounterVec(name, label)
	r.Register(v)
	return v
}

// HistogramVec registers a histogram family keyed by one label; every
// child uses the given bucket upper bounds.
func (r *Registry) HistogramVec(name, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{name: name, label: label, bounds: bounds, by: map[string]*stats.Histogram{}}
	r.Register(v)
	return v
}

// Func registers samples computed at scrape time (gauges read from
// other components, info lines).
func (r *Registry) Func(f func(e *Encoder)) { r.Register(sampled(f)) }

// Bytes renders the page.
func (r *Registry) Bytes() []byte {
	r.mu.Lock()
	ms := r.metrics
	r.mu.Unlock()
	var e Encoder
	for _, m := range ms {
		m.encode(&e)
	}
	return e.buf.Bytes()
}

// ServeHTTP serves the page (GET /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write(r.Bytes()); err != nil {
		return
	}
}

// Encoder writes sample lines.
type Encoder struct{ buf bytes.Buffer }

// Int writes one integer sample; labels are name, value pairs.
func (e *Encoder) Int(name string, v int64, labels ...string) {
	e.sample(name, strconv.FormatInt(v, 10), labels)
}

// Float writes one float sample in shortest round-trip form.
func (e *Encoder) Float(name string, v float64, labels ...string) {
	e.sample(name, formatFloat(v), labels)
}

func (e *Encoder) sample(name, value string, labels []string) {
	e.buf.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			e.buf.WriteByte('{')
		} else {
			e.buf.WriteByte(',')
		}
		e.buf.WriteString(labels[i])
		e.buf.WriteByte('=')
		e.buf.WriteString(strconv.Quote(labels[i+1]))
	}
	if len(labels) > 1 {
		e.buf.WriteByte('}')
	}
	e.buf.WriteByte(' ')
	e.buf.WriteString(value)
	e.buf.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type sampled func(e *Encoder)

func (f sampled) encode(e *Encoder) { f(e) }

// Counter is an atomic integer sample. Gauges that move both ways
// (busy workers, in-flight forwards) are Counters driven with Add(-1).
type Counter struct {
	name   string
	labels []string
	v      atomic.Int64
}

// NewCounter returns an unregistered counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which may be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) encode(e *Encoder) { e.Int(c.name, c.v.Load(), c.labels...) }

// CounterVec is a family of counters keyed by one label's value.
type CounterVec struct {
	name, label string
	mu          sync.Mutex
	by          map[string]*Counter
}

// NewCounterVec returns an unregistered counter family.
func NewCounterVec(name, label string) *CounterVec {
	return &CounterVec{name: name, label: label, by: map[string]*Counter{}}
}

// With returns the child for a label value, creating it at zero — a
// created child renders even if it never counts anything.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.by[value]
	if c == nil {
		c = &Counter{name: v.name, labels: []string{v.label, value}}
		v.by[value] = c
	}
	return c
}

func (v *CounterVec) encode(e *Encoder) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeys(v.by) {
		v.by[k].encode(e)
	}
}

// HistogramVec is a family of stats.Histograms keyed by one label's
// value, rendered as cumulative name_bucket{...,le="bound"} lines plus
// name_sum and name_count.
type HistogramVec struct {
	name, label string
	bounds      []float64
	mu          sync.Mutex
	by          map[string]*stats.Histogram
}

// Observe records x in the child for a label value.
func (v *HistogramVec) Observe(value string, x float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.by[value]
	if h == nil {
		h = stats.NewHistogram(v.bounds...)
		v.by[value] = h
	}
	h.Observe(x)
}

func (v *HistogramVec) encode(e *Encoder) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeys(v.by) {
		h := v.by[k]
		cum := h.Cumulative()
		for i, bound := range h.Bounds() {
			e.Int(v.name+"_bucket", cum[i], v.label, k, "le", formatFloat(bound))
		}
		e.Int(v.name+"_bucket", cum[len(cum)-1], v.label, k, "le", "+Inf")
		e.Float(v.name+"_sum", h.Sum(), v.label, k)
		e.Int(v.name+"_count", h.N(), v.label, k)
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
