package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("X"
// complete events), viewable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// WriteChromeTrace emits the recorded spans as a Chrome trace-event JSON
// array: one track per component, one complete event per span, with
// virtual time on the timeline. Load the output in chrome://tracing or
// ui.perfetto.dev to inspect how execution weaves between CPU threads
// and accelerators.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := make([]chromeEvent, 0, len(spans))
	track := map[string]int{}
	for _, s := range spans {
		tid, ok := track[s.Component]
		if !ok {
			tid = len(track) + 1
			track[s.Component] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Kind.String(),
			Cat:  s.Component,
			Ph:   "X",
			TS:   s.Start.Nanoseconds() / 1e3,
			Dur:  s.End.Sub(s.Start).Nanoseconds() / 1e3,
			PID:  1,
			TID:  tid,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
