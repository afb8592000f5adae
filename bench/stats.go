package bench

import (
	"math"
	"sort"

	"nexsim/internal/stats"
)

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 60, 70, 75, 80, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that
// still has at least minBeyond of n samples beyond it (50 when none
// does): p80 from 50 pooled passes of a batch workload on, p99 for the
// thousands of requests of a serving phase.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// beyond is the number of the n samples that lie beyond percentile p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// quantile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for no samples. xs is not
// modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 50).
func median(xs []float64) float64 { return quantile(xs, 50) }

// spread is the round-to-round spread printed beside a value: (max −
// min) / median of the per-round values, 0 when there is nothing to
// compare.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := stats.Summarize(xs)
	return (s.Max - s.Min) / math.Abs(m)
}

// sortedKeys returns the keys of m in order (map iteration with effects
// goes through sorted keys everywhere in bench/).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortMetrics orders metrics by name.
func sortMetrics(ms []Metric) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
}
