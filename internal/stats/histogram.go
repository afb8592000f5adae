package stats

import "sort"

// Histogram counts observations into fixed buckets. The serving layer
// (internal/simserve) uses it for per-benchmark wall-time distributions
// on /metrics; bounds are upper limits in ascending order with an
// implicit +Inf bucket at the end, the Prometheus convention, so the
// text rendering can emit cumulative `le=` lines directly.
//
// A Histogram is not safe for concurrent use; callers guard it (the
// serving layer records under its own lock).
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      int64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. It panics if bounds are empty or out of order, which would
// silently misbucket every observation.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("stats: histogram bounds must be ascending")
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]int64, len(cp)+1)}
}

// GeometricBounds returns n upper bounds starting at first, each factor
// times the previous — the standard shape for latency buckets.
func GeometricBounds(first, factor float64, n int) []float64 {
	if n < 1 || first <= 0 || factor <= 1 {
		panic("stats: geometric bounds need n >= 1, first > 0, factor > 1")
	}
	out := make([]float64, n)
	v := first
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// N returns the observation count.
func (h *Histogram) N() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns, for each bound (and finally +Inf), the count of
// observations less than or equal to it.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var acc int64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}
