package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded only from bench files, around the calls into each
// layer; what happens inside a layer is split by the substitution and
// probe metrics, not by spans. A nil *Tracer records nothing, so the
// untraced rounds run the same code with the recorder switched off.

// Span is one timed call into a layer.
type Span struct {
	Name   string
	ID     int    // 1-based; 0 means "no span"
	Parent int    // the span that caused it, 0 for a root
	Key    string // request or spec identifier shared by one request's spans
	Start  time.Duration
	End    time.Duration
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty recorder.
func NewTracer() *Tracer { return &Tracer{t0: now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent int, key string) int {
	if t == nil {
		return 0
	}
	at := now().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, ID: len(t.spans) + 1, Parent: parent, Key: key, Start: at, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	at := now().Sub(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// Spans returns the closed spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfRow is one line of a self-time table.
type SelfRow struct {
	Name    string
	Count   int
	TotalMS float64 // sum of span durations
	SelfMS  float64 // total minus the part covered by child spans
	ChildMS float64
}

// SelfTimes folds spans into one row per span name: a layer's self time
// is its spans' duration minus the part of that interval its child
// spans cover. Children of one span never overlap here (each layer
// calls the next synchronously), so covered time is the children's sum,
// clipped to the parent.
func SelfTimes(spans []Span) []SelfRow {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	child := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			child[p.ID] += hi - lo
		}
	}
	rows := map[string]*SelfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &SelfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += ms(s.End - s.Start)
		r.ChildMS += ms(child[s.ID])
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SelfRow, 0, len(names))
	for _, n := range names {
		r := rows[n]
		r.SelfMS = r.TotalMS - r.ChildMS
		out = append(out, *r)
	}
	return out
}

// chromeEvent is one Chrome trace "complete" event.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes spans as Chrome trace events
// (chrome://tracing, Perfetto). Each root span and its descendants
// share a lane.
func WriteChromeTrace(path string, spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := func(s Span) int {
		for {
			p, ok := byID[s.Parent]
			if !ok {
				return s.ID
			}
			s = p
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: root(s) % 64,
			Args: map[string]string{"id": s.Key, "span": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent)},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
