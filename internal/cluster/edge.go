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
// pushed hot entry. The count is the tracker's decayed one (halved every
// HotSetInterval), so admission needs two sightings inside one decay
// interval: an address resubmitted about once per interval reads 1, 1.5,
// 1.75, … and stays forwarded. Nothing invalidates an entry, because a
// content address cannot change its answer; a determinism-probe mismatch
// flushes everything, because the router cannot know which side was
// wrong. It is soft state like the rest of the router: a replacement
// rebuilds it from traffic.

const (
	// edgeMinSeen is the hot-tracker count (this submission included)
	// from which a forwarded result is admitted.
	edgeMinSeen = 2
	// edgeBudget bounds the cache in result bytes.
	edgeBudget = 32 << 20
)

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
// address.
type edgeCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, edgeEntry]
	gen uint64 // bumped by every flush; see admit

	lookups  *metrics.Counter // addresses looked up
	hits     *metrics.Counter // lookups answered
	rejected *metrics.Counter // offered results that failed verification
	flushes  *metrics.Counter // whole-cache flushes (probe mismatches)
}

// newEdgeCache returns a cache bounded to budget result bytes.
func newEdgeCache(budget int64) *edgeCache {
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

// get answers a client request for id: counted, and a hit refreshes the
// entry's LRU position.
func (c *edgeCache) get(id string) (edgeEntry, bool) {
	c.lookups.Inc()
	c.mu.Lock()
	e, ok := c.lru.Get(id)
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	}
	return e, ok
}

// peek looks id up for the router's own use (the hot-set exchange):
// neither counted as a lookup nor a refresh of the LRU position.
func (c *edgeCache) peek(id string) (edgeEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Peek(id)
}

// generation names the current flush epoch. A caller reads it before it
// forwards and hands it back to admit with what the shard answered.
func (c *edgeCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// admit offers a finished result a shard answered for id, which the hot
// tracker has counted seen times; gen is the generation read before the
// forward. A flush since then drops the offer: the answer may come from
// the shard the flush was about, and a cached copy is never probed again.
// An admitted entry costs its result bytes against the budget.
func (c *edgeCache) admit(id string, seen float64, failed bool, result json.RawMessage, gen uint64) {
	if !(seen >= edgeMinSeen) { // a NaN count admits nothing either
		return
	}
	c.mu.Lock()
	_, cached := c.lru.Peek(id)
	c.mu.Unlock()
	if cached {
		return // a concurrent submitter of the same address got here first
	}
	if err := jobapi.VerifyResult(id, failed, result); err != nil {
		c.rejected.Inc()
		return
	}
	c.mu.Lock()
	if c.gen == gen {
		c.lru.Put(id, edgeEntry{result: result, failed: failed}, int64(len(result)))
	}
	c.mu.Unlock()
}

// flush empties the cache and starts a new generation.
func (c *edgeCache) flush() {
	c.mu.Lock()
	c.lru.Clear()
	c.gen++
	c.mu.Unlock()
	c.flushes.Inc()
}
