package cluster

import (
	"encoding/json"
	"sync"

	"nexsim/internal/jobapi"
	"nexsim/internal/lru"
	"nexsim/internal/metrics"
)

// The edge cache: answer at the first tier that knows. Results are
// content-addressed, immutable and self-certifying, which is why the
// router already replicates the hot set to every shard; the same
// property lets the router keep the hot results itself and answer them
// without crossing a tier at all (DESIGN.md §11: 95 % of a
// routed cache hit is the two crossings around a 30 µs shard lookup).
//
// An entry enters only when the hot tracker has counted its address at
// least edgeMinSeen times — one-off cold specs never cost memory — and
// it passes jobapi.VerifyResult, the verification a shard applies to a
// pushed hot entry. Nothing invalidates an entry, because a content
// address cannot change its answer; a determinism-probe mismatch flushes
// everything, because the router cannot know which side was wrong. It is
// soft state like the rest of the router: a replacement rebuilds it from
// traffic.

// edgeMinSeen is the hot-tracker count (this submission included) from
// which a forwarded result is admitted.
const edgeMinSeen = 2

// edgeEntry is one cached result: canonical JobResult bytes and whether
// they record a (deterministic) failure.
type edgeEntry struct {
	result json.RawMessage
	failed bool
}

func (e edgeEntry) status() string {
	if e.failed {
		return jobapi.StatusFailed
	}
	return jobapi.StatusDone
}

// edgeCache is a byte-bounded LRU of verified results keyed by content
// address. A nil *edgeCache is the disabled cache: every lookup misses
// and nothing is admitted.
type edgeCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, edgeEntry]

	lookups  *metrics.Counter // addresses looked up
	hits     *metrics.Counter // lookups answered
	rejected *metrics.Counter // offered results that failed verification
	flushes  *metrics.Counter // whole-cache flushes (probe mismatches)
}

// newEdgeCache returns a cache bounded to budget result bytes, or nil
// (disabled) when budget < 0.
func newEdgeCache(budget int64) *edgeCache {
	if budget < 0 {
		return nil
	}
	return &edgeCache{
		lru:      lru.New[string, edgeEntry](budget),
		lookups:  metrics.NewCounter("simrouter_edge_lookups"),
		hits:     metrics.NewCounter("simrouter_edge_hits"),
		rejected: metrics.NewCounter("simrouter_edge_rejected"),
		flushes:  metrics.NewCounter("simrouter_edge_flushes"),
	}
}

// register puts the cache's counters and gauges on the router's page.
func (c *edgeCache) register(reg *metrics.Registry) {
	reg.Register(c.lookups, c.hits, c.rejected, c.flushes)
	reg.Func(func(e *metrics.Encoder) {
		c.mu.Lock()
		entries, used, evictions := c.lru.Len(), c.lru.Used(), c.lru.Evictions()
		c.mu.Unlock()
		e.Int("simrouter_edge_entries", int64(entries))
		e.Int("simrouter_edge_bytes", used)
		e.Int("simrouter_edge_evictions", int64(evictions))
	})
}

// get looks id up, refreshing its LRU position.
func (c *edgeCache) get(id string) (edgeEntry, bool) {
	if c == nil {
		return edgeEntry{}, false
	}
	c.lookups.Inc()
	c.mu.Lock()
	e, ok := c.lru.Get(id)
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	}
	return e, ok
}

// admit offers a finished result a shard answered for id, which the hot
// tracker has counted seen times. It costs its result bytes against the
// budget.
func (c *edgeCache) admit(id string, seen float64, failed bool, result json.RawMessage) {
	if c == nil || !(seen >= edgeMinSeen) { // a NaN count admits nothing either
		return
	}
	c.mu.Lock()
	_, cached := c.lru.Get(id)
	c.mu.Unlock()
	if cached {
		return // a concurrent submitter of the same address got here first
	}
	if err := jobapi.VerifyResult(id, failed, result); err != nil {
		c.rejected.Inc()
		return
	}
	c.mu.Lock()
	c.lru.Put(id, edgeEntry{result: result, failed: failed}, int64(len(result)))
	c.mu.Unlock()
}

// flush empties the cache.
func (c *edgeCache) flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.lru.Clear()
	c.mu.Unlock()
	c.flushes.Inc()
}
