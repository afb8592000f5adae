package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"nexsim/internal/jobapi"
)

// The replicated hot-set: consistent hashing gives each content address
// one home shard, which is right for the long tail but wrong for the
// head — a sweep every tenant re-runs should hit cache on *any* shard.
// The router (which sees all traffic, so hotness is its cheapest
// signal) counts submissions per content address with periodic decay,
// and every HotSetInterval pushes the top-K finished results to every
// live shard's POST /cluster/hotset endpoint. Shards verify each pushed
// entry against its content address before promoting it into their LRU
// (simserve.Server.Promote), so a buggy or malicious pusher can never
// poison a cache: determinism makes the result self-certifying.

// hotTracker counts per-address submission frequency with exponential
// decay (halved every decay round, sub-unity counts dropped), so the
// hot set follows the working set rather than all-time popularity.
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

// TopK returns the k hottest addresses, hottest first; count ties break
// by address so the selection is deterministic.
func (h *hotTracker) TopK(k int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]string, 0, len(h.counts))
	for id := range h.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if h.counts[ids[i]] != h.counts[ids[j]] {
			return h.counts[ids[i]] > h.counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
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

// hotsetLoop periodically replicates the hot set (stopped by Close).
func (r *Router) hotsetLoop() {
	ticker := time.NewTicker(r.cfg.HotSetInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.PushHotSet()
			r.hot.Decay()
		}
	}
}

// PushHotSet runs one digest exchange: resolve the current top-K
// addresses to finished results (fetched from whichever replica has
// them) and push the batch to every live shard. Addresses still running
// or unknown are skipped this round — they stay hot and are retried on
// the next exchange.
func (r *Router) PushHotSet() {
	ids := r.hot.TopK(r.cfg.HotSetK)
	var entries []jobapi.HotEntry
	for _, id := range ids {
		if e, ok := r.fetchResult(id); ok {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return
	}
	body, err := json.Marshal(jobapi.HotsetPush{Entries: entries})
	if err != nil {
		return
	}
	for _, shard := range r.ring.Shards() {
		if !r.mem.Live(shard) {
			continue
		}
		resp, err := r.client(shard).Post(
			"http://"+shard+"/cluster/hotset", "application/json", bytes.NewReader(body))
		if err != nil {
			r.mem.ReportFailure(shard)
			continue
		}
		drainClose(resp)
		if resp.StatusCode == http.StatusOK {
			r.m.hotsetPushes.Inc()
		}
	}
	r.m.hotsetRounds.Inc()
	r.m.hotsetEntries.Add(int64(len(entries)))
}

// fetchResult resolves one content address to its finished result: from
// the edge cache, else by polling the address's replicas in preference
// order. ok is false while the job is still running or when no replica
// knows it.
func (r *Router) fetchResult(id string) (jobapi.HotEntry, bool) {
	if e, ok := r.edge.peek(id); ok {
		return jobapi.HotEntry{ID: id, Failed: e.failed, Result: e.result}, true
	}
	for code, body := range r.replicaAnswers(id) {
		var poll jobapi.JobPoll
		if code != http.StatusOK || json.Unmarshal(body, &poll) != nil || len(poll.Result) == 0 {
			continue
		}
		switch poll.Status {
		case jobapi.StatusDone, jobapi.StatusFailed:
			return jobapi.HotEntry{ID: id, Failed: poll.Status == jobapi.StatusFailed, Result: poll.Result}, true
		}
	}
	return jobapi.HotEntry{}, false
}
