package devkit

import (
	"sync"

	"nexsim/internal/lru"
)

// MemoBudget bounds every Memo: 64 MB of values, evicted least recently
// used. After `paperbench -exp all` the repository's eight memos hold
// 20 MB between them (the largest 6.9 MB) and the catalog is closed, so
// the budget binds in no workload; it exists so that an unforeseen sweep
// cannot grow a process without limit.
const MemoBudget = 64 << 20

// Memo is a process-wide memo of a pure function: decoded images, task
// plans, generated operands. The models and workloads of concurrent
// simulations (the sweep executor's workers) share it; values are
// immutable once stored. The zero value is not usable; declare one with
// NewMemo.
type Memo[K comparable, V any] struct {
	mu   sync.Mutex
	c    *lru.Cache[K, V]
	cost func(V) int64
}

// NewMemo returns an empty memo whose values weigh cost(v) bytes against
// MemoBudget.
func NewMemo[K comparable, V any](cost func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{c: lru.New[K, V](MemoBudget), cost: cost}
}

// Get returns the value memoized under key, building and storing it on
// first sight. build runs outside the lock: concurrent getters of a new
// key may each build it, but the results are identical and all of them
// return the one that was stored first.
func (m *Memo[K, V]) Get(key K, build func() V) V {
	m.mu.Lock()
	v, ok := m.c.Get(key)
	m.mu.Unlock()
	if ok {
		return v
	}
	built := build()
	cost := m.cost(built)
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.c.Get(key); ok {
		return v
	}
	m.c.Put(key, built, cost)
	return built
}

// Bytes reports the summed cost of the memoized values.
func (m *Memo[K, V]) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c.Used()
}
