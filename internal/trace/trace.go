// Package trace records the coarse-grained execution traces that
// NEX+DSim offers in place of detailed hardware-level traces (paper §1):
// how virtual time is spent as execution weaves between CPU threads and
// accelerators.
package trace

import (
	"fmt"
	"io"
	"sort"

	"nexsim/internal/vclock"
)

// Kind classifies a span.
type Kind int

const (
	Compute Kind = iota // CPU thread executing
	Blocked             // CPU thread parked (lock, queue, IRQ wait)
	MMIO                // CPU thread interacting with an accelerator
)

var kindNames = [...]string{Compute: "compute", Blocked: "blocked", MMIO: "mmio"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "?"
	}
	return kindNames[k]
}

// Span is one attributed interval of virtual time.
type Span struct {
	Component string // thread or accelerator name
	Kind      Kind
	Start     vclock.Time
	End       vclock.Time
}

// chunkSize is the span capacity of one storage chunk. Chunked storage
// makes Add amortized allocation-free after warmup: growth appends a new
// fixed-size chunk instead of reallocating and copying the whole span
// backlog, which dominated tracing cost on long runs.
const chunkSize = 1024

// Recorder accumulates spans in fixed-size chunks. A nil *Recorder is
// valid and records nothing, so tracing can be disabled without
// branching at call sites.
type Recorder struct {
	chunks [][]Span
	n      int
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records a span. No-op on a nil recorder or an empty interval.
//
//simlint:hotpath one call per traced engine event on recording runs
func (r *Recorder) Add(s Span) {
	if r == nil || s.End <= s.Start {
		return
	}
	if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1]) == chunkSize {
		r.chunks = append(r.chunks, make([]Span, 0, chunkSize)) //simlint:allow hotpath-alloc one chunk per 1024 spans, amortized by design
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], s)
	r.n++
}

// Spans returns all recorded spans ordered by start time.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Totals aggregates time per (component, kind).
func (r *Recorder) Totals() map[string]map[Kind]vclock.Duration {
	totals := make(map[string]map[Kind]vclock.Duration)
	if r == nil {
		return totals
	}
	for _, c := range r.chunks {
		for _, s := range c {
			m := totals[s.Component]
			if m == nil {
				m = make(map[Kind]vclock.Duration)
				totals[s.Component] = m
			}
			m[s.Kind] += s.End.Sub(s.Start)
		}
	}
	return totals
}

// Dump writes a human-readable summary of per-component time attribution.
func (r *Recorder) Dump(w io.Writer) {
	totals := r.Totals()
	var comps []string
	for c := range totals {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(w, "%-24s", c)
		kinds := totals[c]
		for k := Compute; k <= MMIO; k++ {
			if d, ok := kinds[k]; ok {
				fmt.Fprintf(w, " %s=%v", k, d)
			}
		}
		fmt.Fprintln(w)
	}
}
