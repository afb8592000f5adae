package devkit

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoConcurrentGettersSeeOneValue: 64 goroutines ask for one new
// key at once. However many of them build it, all return the value that
// was stored first.
func TestMemoConcurrentGettersSeeOneValue(t *testing.T) {
	m := NewMemo[string](func(*int) int64 { return 8 })
	const getters = 64
	var builds atomic.Int64
	got := make([]*int, getters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = m.Get("key", func() *int {
				v := int(builds.Add(1))
				return &v
			})
		}()
	}
	close(start)
	wg.Wait()
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("getter %d saw %p, getter 0 saw %p (%d builds)", g, v, got[0], builds.Load())
		}
	}
	if again := m.Get("key", func() *int { t.Error("a memoized key was rebuilt"); return nil }); again != got[0] {
		t.Fatalf("later getter saw %p, want %p", again, got[0])
	}
}

// TestMemoBudgetEvictsLRU: values weighing a quarter of the budget each;
// the fifth evicts the least recently used, the memo never exceeds the
// budget, and a rebuilt entry equals the evicted one.
func TestMemoBudgetEvictsLRU(t *testing.T) {
	m := NewMemo[int](func(int) int64 { return MemoBudget / 4 })
	builds := map[int]int{}
	get := func(k int) int {
		return m.Get(k, func() int { builds[k]++; return k * k })
	}
	for k := 0; k < 4; k++ {
		get(k)
	}
	get(0) // 1 is now the least recently used
	get(4)
	if m.c.Used() > MemoBudget {
		t.Fatalf("memo holds %d bytes, budget %d", m.c.Used(), MemoBudget)
	}
	for _, k := range []int{0, 2, 3, 4} {
		if get(k); builds[k] != 1 {
			t.Fatalf("key %d was built %d times, want 1 (it should have stayed)", k, builds[k])
		}
	}
	if v := get(1); v != 1 || builds[1] != 2 {
		t.Fatalf("evicted key 1: value %d after %d builds, want 1 after a rebuild", v, builds[1])
	}
	if m.c.Used() != MemoBudget {
		t.Fatalf("memo holds %d bytes, want a full budget of %d", m.c.Used(), MemoBudget)
	}
}
