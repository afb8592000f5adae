package cluster

import (
	"sync"
	"time"
)

// The hot tracker: the router sees all traffic, so it counts
// submissions per content address with periodic decay. The count is
// the edge cache's admission signal (edge.go): an address earns a cached
// copy at the router once it is seen twice inside one DecayInterval.

// hotTracker counts per-address submission frequency with exponential
// decay (halved every decay round, counts below 0.5 dropped), so the
// count follows the working set rather than all-time popularity.
type hotTracker struct {
	mu     sync.Mutex
	counts map[string]float64
}

func newHotTracker() *hotTracker {
	return &hotTracker{counts: map[string]float64{}}
}

// Note records one submission of the given content address and returns
// its decayed count, this submission included — the edge cache's
// admission signal.
func (h *hotTracker) Note(id string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[id]++
	return h.counts[id]
}

// Decay halves every count and drops the cold tail.
func (h *hotTracker) Decay() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, c := range h.counts {
		c /= 2
		if c < 0.5 {
			delete(h.counts, id)
		} else {
			h.counts[id] = c
		}
	}
}

// decayLoop decays the hot tracker every DecayInterval (stopped by
// Close).
func (r *Router) decayLoop() {
	ticker := time.NewTicker(r.cfg.DecayInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.hot.Decay()
		}
	}
}

// PushHotSet does nothing: hot results are answered from the router's
// edge cache, not copied to the shards. It is kept only because the
// benchmark harness under bench/ compiles against it, as
// experiments.SetIntra is.
func (r *Router) PushHotSet() {}
