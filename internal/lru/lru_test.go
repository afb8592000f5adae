package lru

import "testing"

// Count-bounded mode: cost 1 per entry, budget = entry limit (the
// simserve result cache).
func TestCountBound(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 { // touch a: b becomes coldest
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if v, ok := c.Peek("b"); !ok || v != 2 { // a peek does not warm b
		t.Fatalf("Peek(b) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek found an absent key")
	}
	c.Put("c", 3, 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	c.Put("a", 10, 1) // replace in place: no growth, no eviction
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("replaced a = %d, want 10", v)
	}
	if c.Len() != 2 || c.Used() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d used=%d evictions=%d, want 2/2/1", c.Len(), c.Used(), c.Evictions())
	}
}

// Byte-bounded mode: cost len(blob), budget in bytes (the checkpoint
// store): several cold entries go to admit one large one, an entry over
// the whole budget is not cached, a zero-cost (negative) entry is.
func TestByteBound(t *testing.T) {
	c := New[string, []byte](100)
	put := func(k string, n int) { c.Put(k, make([]byte, n), int64(n)) }
	put("a", 40)
	put("b", 40)
	put("neg", 0)
	put("c", 60) // 140 > 100: a goes (100 left), b stays
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted although the budget held without it")
	}
	if c.Used() != 100 || c.Evictions() != 1 {
		t.Fatalf("used=%d evictions=%d, want 100/1", c.Used(), c.Evictions())
	}
	put("huge", 101)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("an entry larger than the budget was cached")
	}
	put("b", 101) // oversize replacement leaves the old entry alone
	if v, ok := c.Get("b"); !ok || len(v) != 40 {
		t.Fatalf("b after oversize replace: len %d, ok %v", len(v), ok)
	}
	put("b", 10) // shrinking replacement returns budget
	if c.Used() != 70 || c.Len() != 3 {
		t.Fatalf("used=%d len=%d, want 70/3", c.Used(), c.Len())
	}
	if v, ok := c.Get("neg"); !ok || len(v) != 0 {
		t.Fatal("zero-cost entry lost")
	}
}

func TestUnboundedAndRemove(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 1000; i++ {
		c.Put(i, i, 1<<40)
	}
	if c.Len() != 1000 || c.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted: len=%d evictions=%d", c.Len(), c.Evictions())
	}
	c.Remove(7)
	c.Remove(7) // absent: no-op
	if _, ok := c.Get(7); ok || c.Len() != 999 || c.Used() != 999<<40 || c.Evictions() != 0 {
		t.Fatalf("after Remove: len=%d used=%d evictions=%d", c.Len(), c.Used(), c.Evictions())
	}
	c.Clear()
	if _, ok := c.Get(8); ok || c.Len() != 0 || c.Used() != 0 || c.Evictions() != 0 {
		t.Fatalf("after Clear: len=%d used=%d evictions=%d", c.Len(), c.Used(), c.Evictions())
	}
	c.Put(8, 8, 1) // a cleared cache is a working cache
	if v, ok := c.Get(8); !ok || v != 8 || c.Len() != 1 || c.Used() != 1 {
		t.Fatalf("Put after Clear: v=%d ok=%v len=%d used=%d", v, ok, c.Len(), c.Used())
	}
}
