// Package cluster promotes the single-process simd daemon into a
// multi-node serving tier: cmd/simrouter fronts N simd shards with a
// stateless consistent-hash router. Placement keys are
// experiments.Spec content addresses (the same SHA-256 that keys every
// shard's result cache), so a spec deterministically owns a home shard
// and repeated submissions of the same sweep land on warm caches.
//
// Determinism is the load-bearing property (DESIGN.md §5): a run is a
// pure function of its spec, so any shard's answer for a given content
// address is byte-identical to any other's. That makes replicas
// location-transparent — the router hedges slow or dead shards by
// re-forwarding to the next replica and treats the byte comparison of
// duplicate answers as a free cross-node determinism probe.
//
// The package splits along the router's concerns: ring.go (placement),
// membership.go (liveness), forwarder.go (request routing),
// hedger.go (retry/hedge races), hotset.go (the hot tracker's decayed
// counts), edge.go (the router's verified result cache), admission.go
// (per-tenant fair admission), metrics.go (/metrics).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// defaultVNodes is the virtual-node count per shard. 64 points per
// shard keeps the max/min ownership spread under ~30% for small
// clusters while the ring stays tiny (a 16-shard ring is 1024 points).
const defaultVNodes = 64

// loadFactor is the router's bounded-load ceiling factor c (see
// BoundedPick): a key skips its home shard while that shard carries
// more than c×⌈(inflight+1)/liveShards⌉ in-flight sub-batches.
const loadFactor = 1.25

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is an immutable consistent-hash ring over a static shard list
// with virtual nodes. Liveness is deliberately not the ring's business:
// Order returns the full preference order for a key and the caller
// (the forwarder) filters by membership state, so a shard bouncing in
// and out of the cluster never moves keys between the shards that
// stayed up.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash
}

// NewRing builds a ring over the given shard names (trailing order is
// irrelevant; placement depends only on the name set). vnodes <= 0
// selects the default.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	names := append([]string(nil), shards...)
	sort.Strings(names)
	r := &Ring{shards: names}
	for si, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  pointHash(name, v),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring
		// is a pure function of the member set.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the member names in sorted order.
func (r *Ring) Shards() []string { return r.shards }

// pointHash positions one virtual node on the circle.
func pointHash(shard string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", shard, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions a placement key on the circle. Keys are spec
// content addresses (already SHA-256 hex), but hashing again keeps the
// function total over arbitrary strings (tests, future key kinds).
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Order returns every shard in preference order for key: the owner of
// the first ring point at or clockwise of the key's hash, then each
// subsequent distinct shard in ring order. The full order (rather than
// a single pick) is what lets the forwarder fail over and hedge without
// re-hashing: replica i+1 for a key is simply Order(key)[i+1].
func (r *Ring) Order(key string) []string {
	if len(r.shards) == 0 {
		return nil
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]string, 0, len(r.shards))
	seen := make([]bool, len(r.shards))
	for i := 0; i < len(r.points) && len(order) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			order = append(order, r.shards[p.shard])
		}
	}
	return order
}

// BoundedPick chooses the first shard in the key's preference order
// that is both admitted by live and under the bounded-load ceiling
// c×⌈(total+1)/n⌉, where total is the summed in-flight load over the n
// live candidates ("consistent hashing with bounded loads"). If every
// candidate is over the ceiling — a uniformly hot cluster — the
// preferred shard wins, preserving cache locality. ok is false when no
// candidate is live.
func (r *Ring) BoundedPick(key string, c float64, live func(string) bool, load func(string) int) (string, bool) {
	order := r.Order(key)
	candidates := order[:0:0]
	total := 0
	for _, s := range order {
		if live == nil || live(s) {
			candidates = append(candidates, s)
			if load != nil {
				total += load(s)
			}
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	if c <= 1 || load == nil {
		return candidates[0], true
	}
	ceiling := int(c * float64(total+1) / float64(len(candidates)))
	if ceiling < 1 {
		ceiling = 1
	}
	for _, s := range candidates {
		if load(s) < ceiling {
			return s, true
		}
	}
	return candidates[0], true
}
