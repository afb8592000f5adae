// Package checkpoint holds the in-memory store of NEX prefix
// checkpoints.
//
// A checkpoint is the host's: the fingerprint of a NEX engine halted at
// its first device interaction (nex.(*Engine).Fingerprint). The engines
// are deterministic, so two runs of the same prefix produce
// byte-identical blobs, and a sweep whose points share a prefix keys
// them to one blob; each point then re-runs the prefix and checks it
// against the blob before it continues (SimBricks checkpoints its host
// after boot for the same sweeps).
package checkpoint

import (
	"sync"

	"nexsim/internal/lru"
)

// Store is a byte-budget-bounded, LRU-evicting, in-memory checkpoint
// store with single-flight computation: concurrent requests for the
// same key block on one producer instead of each re-running the prefix.
//
// A key is any stable identifier for the prefix (the planner uses the
// bench name and every host-side configuration field). A stored blob may be
// nil: a nil entry is a *negative* checkpoint recording that the prefix
// ran to completion without reaching a snapshot point, so future
// requests skip straight to a full run instead of re-probing.
type Store struct {
	mu sync.Mutex
	// mem holds the blobs: cost is blob bytes, so the budget bounds
	// payload (header and key overhead is not counted); a blob larger
	// than the whole budget is not cached at all.
	mem     *lru.Cache[string, []byte]
	flights map[string]*flight

	hits, misses uint64
}

type flight struct {
	done chan struct{}
	blob []byte
	ok   bool
}

// NewStore returns a store bounded to budgetBytes of blob payload.
// budgetBytes <= 0 means unbounded.
func NewStore(budgetBytes int64) *Store {
	return &Store{
		mem:     lru.New[string, []byte](budgetBytes),
		flights: make(map[string]*flight),
	}
}

// Get returns the blob stored under key. ok distinguishes "no entry"
// from a stored negative (nil blob, ok=true) entry.
func (s *Store) Get(key string) (blob []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blob, ok = s.lookup(key); !ok {
		s.misses++
	}
	return blob, ok
}

// lookup reads the store and counts a hit; callers hold s.mu.
func (s *Store) lookup(key string) ([]byte, bool) {
	blob, ok := s.mem.Get(key)
	if ok {
		s.hits++
	}
	return blob, ok
}

// Put stores blob under key (nil records a negative entry) and evicts
// least-recently-used entries until the byte budget holds. A blob
// larger than the whole budget is not cached at all.
func (s *Store) Put(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.Put(key, blob, int64(len(blob)))
}

// GetOrCompute returns the blob for key, computing it at most once
// across concurrent callers. When the key is absent and no computation
// is in flight, compute() runs on the calling goroutine and its result
// is published to every waiter and stored; mine reports whether this
// caller ran compute. When compute returns an error the result is not
// cached, and one waiting caller is promoted to retry.
//
// compute should produce only the checkpoint blob (run the prefix and
// snapshot) — not the full simulation — so waiters unblock as soon as
// the shared prefix is available.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) (blob []byte, mine bool, err error) {
	for {
		s.mu.Lock()
		if b, ok := s.lookup(key); ok {
			s.mu.Unlock()
			return b, false, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.ok {
				return f.blob, false, nil
			}
			// The producer failed; loop to retry (possibly becoming the
			// new producer).
			continue
		}
		s.misses++
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		b, cerr := compute()

		s.mu.Lock()
		delete(s.flights, key)
		if cerr == nil {
			s.mem.Put(key, b, int64(len(b)))
			f.blob, f.ok = b, true
		}
		s.mu.Unlock()
		close(f.done)
		if cerr != nil {
			return nil, true, cerr
		}
		return b, true, nil
	}
}

// StoreStats is a point-in-time snapshot of store counters.
type StoreStats struct {
	Entries   int
	UsedBytes int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns current counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:   s.mem.Len(),
		UsedBytes: s.mem.Used(),
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.mem.Evictions(),
	}
}
