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
// SHA-256 of the prefix's canonical spec JSON). A stored blob may be
// nil: a nil entry is a *negative* checkpoint recording that the prefix
// ran to completion without reaching a snapshot point, so future
// requests skip straight to a full run instead of re-probing.
type Store struct {
	mu sync.Mutex
	// mem is the memory tier: cost is blob bytes, so the budget bounds
	// payload (header and key overhead is not counted); a blob larger
	// than the whole budget is not cached at all.
	mem     *lru.Cache[string, []byte]
	flights map[string]*flight
	// disk is the optional persistent tier (AttachDisk): puts write
	// through, memory misses fall through and promote hits.
	disk *DiskStore

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

// AttachDisk adds a persistent tier: every Put also lands on disk
// (atomically), and a memory miss falls through to disk, promoting a
// hit back into memory. Attach before concurrent use; a nil d detaches.
func (s *Store) AttachDisk(d *DiskStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = d
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

// lookup reads memory, then disk; callers hold s.mu. A disk hit is
// promoted into memory without being re-written to disk.
func (s *Store) lookup(key string) ([]byte, bool) {
	blob, ok := s.mem.Get(key)
	if !ok && s.disk != nil {
		if blob, ok = s.disk.Get(key); ok {
			s.mem.Put(key, blob, int64(len(blob)))
		}
	}
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
	s.put(key, blob)
}

// put is Put without locking; callers hold s.mu. The disk tier sees
// every put, including blobs too large for the memory budget — disk
// write errors are deliberately swallowed (the tier is an optimization,
// and the Stats counters surface persistent trouble).
func (s *Store) put(key string, blob []byte) {
	if s.disk != nil {
		_ = s.disk.Put(key, blob)
	}
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
			s.put(key, b)
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

// StoreStats is a point-in-time snapshot of store counters. The Disk
// fields stay zero until AttachDisk.
type StoreStats struct {
	Entries   int
	UsedBytes int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Disk      DiskStats
}

// Stats returns current counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Entries:   s.mem.Len(),
		UsedBytes: s.mem.Used(),
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.mem.Evictions(),
	}
	if s.disk != nil {
		st.Disk = s.disk.Stats()
	}
	return st
}
