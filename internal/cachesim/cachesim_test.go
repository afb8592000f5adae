package cachesim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"nexsim/internal/xrand"

	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

// l1d is a typical L1 data cache, loosely modeled on the paper's Xeon
// Gold 6248R host, next to the package's L2 and LLC.
var l1d = Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 1333 * vclock.Picosecond} // ~4 cycles @3GHz

func tiny(parent memsys.Port) *Cache {
	return New(Config{
		Name: "t", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 10 * vclock.Nanosecond,
	}, parent)
}

func TestHitAfterMiss(t *testing.T) {
	c := tiny(memsys.Fixed{Latency: 100 * vclock.Nanosecond})
	d1 := c.Access(0, mem.Read, 0x1000, 8)
	if c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("first access: hits=%d misses=%d", c.Hits, c.Misses)
	}
	// Miss pays tag check + parent: 10ns + 100ns.
	if want := vclock.Time(110 * vclock.Nanosecond); d1 != want {
		t.Fatalf("miss latency = %v, want %v", vclock.Duration(d1), vclock.Duration(want))
	}
	d2 := c.Access(d1, mem.Read, 0x1008, 8) // same line
	if c.Hits != 1 {
		t.Fatalf("second access not a hit (hits=%d)", c.Hits)
	}
	if want := d1.Add(10 * vclock.Nanosecond); d2 != want {
		t.Fatalf("hit latency = %v, want hit latency only", d2.Sub(d1))
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(memsys.Fixed{}) // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = 8 sets * 64B = 512).
	a, b, x := mem.Addr(0), mem.Addr(512), mem.Addr(1024)
	c.Access(0, mem.Read, a, 1)
	c.Access(0, mem.Read, b, 1)
	c.Access(0, mem.Read, a, 1) // refresh a; b is now LRU
	c.Access(0, mem.Read, x, 1) // evicts b
	c.Access(0, mem.Read, a, 1) // still a hit
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	before := c.Misses
	c.Access(0, mem.Read, b, 1) // must miss again
	if c.Misses != before+1 {
		t.Fatal("evicted line still hit")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	counter := &memsys.Counter{Inner: memsys.Fixed{}}
	c := tiny(counter)
	a, b, x := mem.Addr(0), mem.Addr(512), mem.Addr(1024)
	c.Access(0, mem.Write, a, 8) // dirty
	c.Access(0, mem.Read, b, 8)
	c.Access(0, mem.Read, x, 8) // evicts a (LRU), which is dirty
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
	if counter.Writes != 1 {
		t.Fatalf("parent saw %d writes, want 1 writeback", counter.Writes)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	counter := &memsys.Counter{Inner: memsys.Fixed{}}
	c := tiny(counter)
	c.Access(0, mem.Read, 0, 8)
	c.Access(0, mem.Read, 512, 8)
	c.Access(0, mem.Read, 1024, 8)
	if counter.Writes != 0 {
		t.Fatal("clean eviction wrote back")
	}
}

func TestMultiLineRequest(t *testing.T) {
	c := tiny(memsys.Fixed{Latency: 100 * vclock.Nanosecond})
	// 256B spans 4 lines: 4 misses.
	c.Access(0, mem.Read, 0, 256)
	if c.Misses != 4 {
		t.Fatalf("misses = %d, want 4", c.Misses)
	}
}

func TestHierarchyStacking(t *testing.T) {
	dram := memsys.Fixed{Latency: 100 * vclock.Nanosecond}
	l2 := New(Config{Name: "L2", Size: 4096, LineSize: 64, Assoc: 4, HitLatency: 5 * vclock.Nanosecond}, dram)
	l1 := New(Config{Name: "L1", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1 * vclock.Nanosecond}, l2)

	// Cold: L1 miss -> L2 miss -> DRAM. 1 + 5 + 100 = 106ns.
	d := l1.Access(0, mem.Read, 0x40, 8)
	if want := vclock.Time(106 * vclock.Nanosecond); d != want {
		t.Fatalf("cold access = %v, want %v", vclock.Duration(d), vclock.Duration(want))
	}
	// L1 hit: 1ns.
	d2 := l1.Access(d, mem.Read, 0x44, 4)
	if got := d2.Sub(d); got != 1*vclock.Nanosecond {
		t.Fatalf("L1 hit = %v", got)
	}

	// Evict the line from tiny L1 but not from L2: same-set lines in L1
	// (8 sets * 64 = 512 stride), different sets in L2.
	l1.Access(d2, mem.Read, 0x40+512, 8)
	l1.Access(d2, mem.Read, 0x40+1024, 8)
	l2Misses := l2.Misses
	d3 := l1.Access(d2, mem.Read, 0x40, 8) // L1 miss, L2 hit: 1+5 = 6ns
	if got := d3.Sub(d2); got != 6*vclock.Nanosecond {
		t.Fatalf("L2 hit path = %v, want 6ns", got)
	}
	if l2.Misses != l2Misses {
		t.Fatal("L2 missed on a line it should hold")
	}
}

func TestMissRate(t *testing.T) {
	c := tiny(memsys.Fixed{})
	if c.Hits+c.Misses != 0 {
		t.Fatal("traffic counted before any access")
	}
	c.Access(0, mem.Read, 0, 8)
	c.Access(0, mem.Read, 0, 8)
	c.Access(0, mem.Read, 0, 8)
	c.Access(0, mem.Read, 0, 8)
	if c.Hits != 3 || c.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 3 and 1", c.Hits, c.Misses)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1024, LineSize: 60, Assoc: 2},       // line not power of two
		{Size: 1024, LineSize: 64, Assoc: 0},       // zero assoc
		{Size: 192, LineSize: 64, Assoc: 1},        // 3 sets
		{Size: 64 * 512, LineSize: 64, Assoc: 512}, // way index would not fit the hint table
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg, memsys.Fixed{})
		}()
	}
}

// Property: completion time never precedes issue time, and a repeated
// access to the same address is never slower than the first.
func TestLatencyProperties(t *testing.T) {
	f := func(addr uint32, sz uint8) bool {
		c := tiny(memsys.Fixed{Latency: 77 * vclock.Nanosecond})
		a := mem.Addr(addr)
		size := int(sz%128) + 1
		d1 := c.Access(0, mem.Read, a, size)
		if d1 < 0 {
			return false
		}
		d2 := c.Access(d1, mem.Read, a, size)
		return d2.Sub(d1) <= d1.Sub(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// snapshot is everything about a cache a caller can observe.
type snapshot struct{ hits, misses, evictions, writebacks, clock int64 }

func observe(c *Cache) snapshot {
	return snapshot{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.lruClock}
}

// TestHitMatchesAccessOne drives two identical caches with one random
// trace — one through AccessOne alone, one through Hit with AccessOne as
// the fallback, the way the CPU model's memory pass does. They must stay
// indistinguishable (stats, LRU clock, parent traffic and so dirty bits),
// a true Hit must be exactly an AccessOne hit, and a false Hit must leave
// the cache untouched.
func TestHitMatchesAccessOne(t *testing.T) {
	cfg := Config{Name: "hit", Size: 4096, LineSize: 64, Assoc: 4, HitLatency: 10 * vclock.Nanosecond}
	refParent := &memsys.Counter{Inner: memsys.Fixed{Latency: 100 * vclock.Nanosecond}}
	fastParent := &memsys.Counter{Inner: memsys.Fixed{Latency: 100 * vclock.Nanosecond}}
	ref, fast := New(cfg, refParent), New(cfg, fastParent)
	r := xrand.New(1)
	probeHits := 0
	for i := 0; i < 50_000; i++ {
		// 96 hot lines in a 64-line cache, with a cold tail whose line
		// addresses alias the hot lines' hint slots.
		line := mem.Addr(r.Intn(96))
		if r.Intn(8) == 0 {
			line += mem.Addr(hintSlots * (1 + r.Intn(4)))
		}
		addr := line*64 + mem.Addr(r.Intn(64))
		kind := mem.AccessKind(r.Intn(2))

		want := ref.AccessOne(0, kind, addr)
		before := observe(fast)
		if fast.Hit(kind, addr) {
			probeHits++
			if want != vclock.Time(cfg.HitLatency) {
				t.Fatalf("access %d: Hit reported a hit where AccessOne took %v", i, vclock.Duration(want))
			}
		} else {
			if after := observe(fast); after != before {
				t.Fatalf("access %d: a false Hit changed the cache: %+v -> %+v", i, before, after)
			}
			if got := fast.AccessOne(0, kind, addr); got != want {
				t.Fatalf("access %d: fallback took %v, reference %v", i, vclock.Duration(got), vclock.Duration(want))
			}
		}
		if a, b := observe(fast), observe(ref); a != b {
			t.Fatalf("access %d: caches diverged: %+v vs %+v", i, a, b)
		}
		if *fastParent != *refParent {
			t.Fatalf("access %d: parent traffic diverged: %+v vs %+v", i, *fastParent, *refParent)
		}
	}
	if probeHits < int(ref.Hits)*9/10 {
		t.Fatalf("the way hint found only %d of %d hits", probeHits, ref.Hits)
	}
}

// TestHitSurvivesRecycle: a recycled cache keeps its hint table and its
// old lines, but none of them may hit in the new epoch.
func TestHitSurvivesRecycle(t *testing.T) {
	cfg := Config{Name: "hit-recycle", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: vclock.Nanosecond}
	c := New(cfg, memsys.Fixed{})
	for a := mem.Addr(0); a < 1024; a += 64 {
		c.AccessOne(0, mem.Write, a)
		if !c.Hit(mem.Read, a) {
			t.Fatalf("line %#x not found right after its fill", a)
		}
	}
	c.Recycle()
	c2 := New(cfg, memsys.Fixed{})
	if c2 != c {
		t.Fatal("pool did not hand the recycled cache back")
	}
	for a := mem.Addr(0); a < 1024; a += 64 {
		if c2.Hit(mem.Read, a) {
			t.Fatalf("line %#x of the previous epoch hit after Recycle", a)
		}
	}
	if c2.Hits != 0 || c2.Misses != 0 {
		t.Fatalf("probing a recycled cache moved its stats: hits=%d misses=%d", c2.Hits, c2.Misses)
	}
	c2.AccessOne(0, mem.Read, 0x40)
	if !c2.Hit(mem.Write, 0x40) || c2.Hits != 1 || c2.Misses != 1 {
		t.Fatalf("recycled cache did not refill: hits=%d misses=%d", c2.Hits, c2.Misses)
	}
}

// ways is how many ways deep c's plane is.
func ways(c *Cache) int { return len(c.plane) / int(c.stride) }

// TestPlaneGrowsWithDepth: the plane is as deep as the deepest set has
// needed (to the next doubling), not as deep as the cache is associative,
// and growing it loses no line.
func TestPlaneGrowsWithDepth(t *testing.T) {
	forget(LLC)
	c := New(LLC, memsys.Fixed{})
	defer c.Recycle()
	const waySpan = 2 << 20 // the LLC's sets × its line size: what one way covers
	for a := mem.Addr(0); a < waySpan; a += 4096 {
		c.Access(0, mem.Read, a, 4096) // a 2 MB cold stream: every set one deep
	}
	if ways(c) != 1 || c.Misses != waySpan/64 {
		t.Fatalf("after a 2 MB cold stream: %d ways, %d misses; want 1 way, %d misses", ways(c), c.Misses, waySpan/64)
	}
	for depth, want := range []int{1, 2, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16} {
		c.AccessOne(0, mem.Write, 0x40+mem.Addr(depth)*waySpan) // one set, ever deeper
		if ways(c) != want {
			t.Fatalf("deepest set %d deep: %d ways, want %d", depth+1, ways(c), want)
		}
	}
	hits := c.Hits
	for depth := 0; depth < 16; depth++ {
		if !c.Hit(mem.Read, 0x40+mem.Addr(depth)*waySpan) {
			c.AccessOne(0, mem.Read, 0x40+mem.Addr(depth)*waySpan)
		}
	}
	for a := mem.Addr(128); a < waySpan; a += 64 {
		c.AccessOne(0, mem.Read, a)
	}
	if want := hits + 16 + waySpan/64 - 2; c.Hits != want || c.Evictions != 0 {
		t.Fatalf("after growing to 16 ways: %d hits, %d evictions; want %d, 0: growth lost lines", c.Hits, c.Evictions, want)
	}
}

// TestWayPitchIsNotAPowerOfTwo is the host-cache guard of the CPU model's
// L1 and L2 (stridePad): however deep the plane has grown, the ways of
// one set lie one pitch apart, and a power-of-two pitch would put all of
// them into one set of the host's own L1.
func TestWayPitchIsNotAPowerOfTwo(t *testing.T) {
	for _, cfg := range []Config{l1d, L2, LLC} {
		c := New(cfg, memsys.Fixed{})
		sets := mem.Addr(cfg.Size / cfg.LineSize / cfg.Assoc)
		for way := mem.Addr(0); way < mem.Addr(cfg.Assoc); way++ {
			c.AccessOne(0, mem.Read, way*sets*mem.Addr(cfg.LineSize))
		}
		pitch := len(c.plane) / cfg.Assoc * int(unsafe.Sizeof(entry{}))
		if ways(c) != cfg.Assoc || pitch&(pitch-1) == 0 || pitch%64 != 0 {
			t.Errorf("%s at full depth: %d ways %d bytes apart, want %d ways a whole number of host lines but no power of two apart",
				cfg.Name, ways(c), pitch, cfg.Assoc)
		}
		c.Recycle()
	}
	forget(LLC)
}

// TestRecycleKeepsCapacity: a recycled cache comes back with the plane it
// grew and is cold all the same.
func TestRecycleKeepsCapacity(t *testing.T) {
	cfg := Config{Name: "keep", Size: 8 << 10, LineSize: 64, Assoc: 8, HitLatency: vclock.Nanosecond}
	c := New(cfg, memsys.Fixed{})
	for i := mem.Addr(0); i < 5; i++ {
		c.AccessOne(0, mem.Write, i*1024) // 16 sets: one set, five deep
	}
	if ways(c) != 8 {
		t.Fatalf("five deep: %d ways, want 8", ways(c))
	}
	c.Recycle()
	c2 := New(cfg, memsys.Fixed{Latency: 50 * vclock.Nanosecond})
	if c2 != c || ways(c2) != 8 {
		t.Fatalf("recycled cache came back as %p with %d ways, want %p with 8", c2, ways(c2), c)
	}
	if observe(c2) != (snapshot{}) {
		t.Fatalf("recycled cache is not cold: %+v", observe(c2))
	}
	if c2.Hit(mem.Read, 0) {
		t.Fatal("a line of the previous life hit")
	}
	if d := c2.AccessOne(0, mem.Read, 0); d != vclock.Time(51*vclock.Nanosecond) || c2.Misses != 1 {
		t.Fatalf("first access of a recycled cache: done at %v with %d misses, want a 51ns miss", vclock.Duration(d), c2.Misses)
	}
}

// TestPoolBoundedInBytes: recycling more plane than poolMaxBytes drops
// the largest caches first, and the pool's byte count stays exact.
func TestPoolBoundedInBytes(t *testing.T) {
	small := New(Config{Name: "bound-small", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: vclock.Nanosecond}, memsys.Fixed{})
	small.Recycle()
	var llcs []*Cache
	for range poolMaxBytes/(LLC.Size/LLC.LineSize*int(unsafe.Sizeof(entry{}))) + 1 {
		c := New(LLC, memsys.Fixed{})
		for depth := mem.Addr(0); depth < 16; depth++ {
			c.AccessOne(0, mem.Read, depth*(2<<20))
		}
		llcs = append(llcs, c)
	}
	for _, c := range llcs {
		c.Recycle()
	}
	pool.Lock()
	sum, kept := 0, len(pool.m[llcs[0].cfg])
	for _, list := range pool.m {
		for _, c := range list {
			sum += c.bytes()
		}
	}
	bytes := pool.bytes
	pool.Unlock()
	if bytes != sum || bytes > poolMaxBytes {
		t.Fatalf("pool counts %d bytes and holds %d, bound %d", bytes, sum, poolMaxBytes)
	}
	if kept >= len(llcs) || kept == 0 {
		t.Fatalf("pool kept %d of %d full-depth LLCs: want some dropped, not all", kept, len(llcs))
	}
	if c := New(small.cfg, memsys.Fixed{}); c != small {
		t.Fatal("the pool dropped a 1 KB cache while it held 8 MB ones")
	}
	forget(LLC)
}

// BenchmarkHit is the inlined probe on resident lines, the shape of the
// CPU model's L1-hit path.
func BenchmarkHit(b *testing.B) {
	c := New(l1d, memsys.Fixed{})
	for a := mem.Addr(0); a < 16<<10; a += 64 {
		c.AccessOne(0, mem.Read, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Hit(mem.AccessKind(i&1), mem.Addr(i*64)&(16<<10-1)) {
			b.Fatal("resident line missed")
		}
	}
}
