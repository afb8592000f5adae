package cachesim

import (
	"fmt"
	"slices"
	"testing"

	"nexsim/internal/dram"
	"nexsim/internal/interconnect"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// parentCall is one request a cache made of its parent.
type parentCall struct {
	at   vclock.Time
	kind mem.AccessKind
	addr mem.Addr
	size int
}

// logPort is a parent whose answers depend on the order of the requests
// (one busy point, like a DRAM channel) and which remembers all of them.
type logPort struct {
	busy  vclock.Time
	calls []parentCall
}

func (p *logPort) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	p.calls = append(p.calls, parentCall{at, kind, addr, size})
	p.busy = max(p.busy, at).Add(vclock.Duration(40+addr%7) * vclock.Nanosecond)
	return p.busy
}

// diffGeometries are the shapes the differential test and the fuzzer
// drive: direct-mapped, the L1's and the LLC's associativity, the widest
// legal set, a line size other than 64, and one with sets enough that
// they deepen slowly — its plane is still growing hundreds of operations
// into a trace.
var diffGeometries = []Config{
	{Name: "diff-1way", Size: 1 << 10, LineSize: 64, Assoc: 1, HitLatency: 3 * vclock.Nanosecond},
	{Name: "diff-8way", Size: 4 << 10, LineSize: 64, Assoc: 8, HitLatency: 1333 * vclock.Picosecond},
	{Name: "diff-16way", Size: 8 << 10, LineSize: 64, Assoc: 16, HitLatency: 5 * vclock.Nanosecond, Pace: 500 * vclock.Picosecond},
	{Name: "diff-256way", Size: 32 << 10, LineSize: 64, Assoc: 256, HitLatency: 10 * vclock.Nanosecond},
	{Name: "diff-128B", Size: 2 << 10, LineSize: 128, Assoc: 4, HitLatency: 2 * vclock.Nanosecond},
	{Name: "diff-grow", Size: 64 << 10, LineSize: 64, Assoc: 16, HitLatency: 4 * vclock.Nanosecond},
}

// forget empties the construction pool of cfg's caches, so that the next
// New builds one whose plane has yet to grow.
func forget(cfg Config) {
	if cfg.Pace == 0 {
		cfg.Pace = 2 * vclock.Nanosecond
	}
	pool.Lock()
	defer pool.Unlock()
	for _, c := range pool.m[cfg] {
		pool.bytes -= c.bytes()
	}
	delete(pool.m, cfg)
}

// pooledRefs is the reference's construction pool across runDiff calls,
// as the package pool is Cache's.
var pooledRefs = refPool{}

// runDiff decodes ops into a sequence of cache operations — the first
// byte picks the geometry and, by its top bit, whether the Cache is built
// new (one way deep, growing as the trace deepens its sets) or may come
// grown from the pool; every following four bytes are one operation —
// and applies it to a Cache and a refCache. After every operation the
// returned time, the four counters, the LRU clock and the parent's
// request log must be equal. Both caches end recycled, so the next call
// with the same geometry starts from pooled ones.
func runDiff(t testing.TB, ops []byte) (evictions, writebacks int64) {
	if len(ops) == 0 {
		return 0, 0
	}
	cfg := diffGeometries[int(ops[0]&0x7f)%len(diffGeometries)]
	if ops[0]&0x80 != 0 {
		forget(cfg)
	}
	lines := mem.Addr(cfg.Size / cfg.LineSize)
	gotParent, wantParent := &logPort{}, &logPort{}
	got, want := New(cfg, gotParent), pooledRefs.newRef(cfg, wantParent)
	var at vclock.Time
	for n, o := 0, ops[1:]; len(o) >= 4; n, o = n+1, o[4:] {
		// Lines from four times the cache's capacity, so sets fill and
		// evict; one in eight comes from far away on the same hint slot.
		line := (mem.Addr(o[1]) | mem.Addr(o[2])<<8) % (4 * lines)
		if o[0]&0x38 == 0 {
			line += hintSlots * mem.Addr(1+o[2]%4)
		}
		addr := line*mem.Addr(cfg.LineSize) + mem.Addr(o[3])%mem.Addr(cfg.LineSize)
		kind := mem.AccessKind(o[3] >> 7)
		at = at.Add(vclock.Duration(o[3]&0x0f) * vclock.Nanosecond)

		var g, w vclock.Time
		var what string
		switch sel := o[0] & 0x07; {
		case o[0] == 0xff:
			what = "Flush"
			g, w = got.Flush(at), want.Flush(at)
		case o[0] == 0xfe:
			what = "Recycle+New"
			evictions, writebacks = evictions+got.Evictions, writebacks+got.Writebacks
			got.Recycle()
			want.recycle(pooledRefs)
			gotParent, wantParent = &logPort{}, &logPort{}
			got, want = New(cfg, gotParent), pooledRefs.newRef(cfg, wantParent)
		case sel < 3:
			what = "AccessOne"
			g, w = got.AccessOne(at, kind, addr), want.AccessOne(at, kind, addr)
		case sel < 6:
			what = "Hit/AccessOne"
			gh, wh := got.Hit(kind, addr), want.Hit(kind, addr)
			if gh != wh {
				t.Fatalf("%s op %d: Hit(%v, %#x) = %v, reference %v", cfg.Name, n, kind, addr, gh, wh)
			}
			if !gh {
				g, w = got.AccessOne(at, kind, addr), want.AccessOne(at, kind, addr)
			}
		default:
			size := 1 + int(o[3]&0x7f)*int(1+o[0]>>6) // up to 508 bytes: one to nine lines
			what = fmt.Sprintf("Access size %d", size)
			g, w = got.Access(at, kind, addr, size), want.Access(at, kind, addr, size)
		}
		if g != w {
			t.Fatalf("%s op %d: %s(%v, %v, %#x) returned %v, reference %v", cfg.Name, n, what, at, kind, addr, g, w)
		}
		gs := snapshot{got.Hits, got.Misses, got.Evictions, got.Writebacks, got.lruClock}
		ws := snapshot{want.Hits, want.Misses, want.Evictions, want.Writebacks, want.lruClock}
		if gs != ws {
			t.Fatalf("%s op %d: %s(%v, %#x): state %+v, reference %+v", cfg.Name, n, what, kind, addr, gs, ws)
		}
		if !slices.Equal(gotParent.calls, wantParent.calls) {
			t.Fatalf("%s op %d: %s(%v, %#x): parent saw\n%v\nreference's saw\n%v", cfg.Name, n, what, kind, addr, gotParent.calls, wantParent.calls)
		}
		gotParent.calls, wantParent.calls = gotParent.calls[:0], wantParent.calls[:0]
	}
	evictions, writebacks = evictions+got.Evictions, writebacks+got.Writebacks
	got.Recycle()
	want.recycle(pooledRefs)
	return evictions, writebacks
}

// TestCacheMatchesReference is the differential test of the way-major
// layout: long random operation sequences on every geometry — single
// lines, multi-line requests, the Hit probe with its AccessOne fallback,
// flushes, and recycling through the pool — must leave Cache and the
// set-major refCache indistinguishable after every operation. Every
// other round starts from a cache that has yet to grow.
func TestCacheMatchesReference(t *testing.T) {
	r := xrand.New(0xcac4e)
	for g := range diffGeometries {
		for round := 0; round < 4; round++ {
			ops := make([]byte, 1+4*20_000)
			for i := range ops {
				ops[i] = byte(r.Uint64())
			}
			ops[0] = byte(g | round%2<<7)
			for i := 1; i < len(ops); i += 4 {
				// Flush and Recycle once in a few thousand operations, not
				// once in 128: sets must get the time to fill up.
				if ops[i] >= 0xfe && r.Intn(32) != 0 {
					ops[i] &= 0x7f
				}
			}
			evictions, writebacks := runDiff(t, ops)
			if evictions == 0 || writebacks == 0 {
				t.Errorf("%s round %d: %d evictions, %d writebacks: full sets were not exercised",
					diffGeometries[g].Name, round, evictions, writebacks)
			}
		}
	}
}

// FuzzCacheMatchesReference lets the fuzzer write the operation
// sequence. The seed corpus is testdata/fuzz/FuzzCacheMatchesReference.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1+4*4096 {
			ops = ops[:1+4*4096] // keeps one exec in the hundreds of microseconds
		}
		runDiff(t, ops)
	})
}

// benchDMAStream is the NEX+DSim DMA path in isolation: 4 KB DMAs over
// a PCIe fabric into an LLC over DRAM, the timed part streaming through
// 8 MB the way a device reads its inputs. before is what the LLC has
// seen when the timed sweep starts: nothing (a recycled, empty LLC, what
// a freshly built system gets — every line misses into an empty way), the
// same 8 MB (every line hits), or the 40 MB in front of them (every set
// is full, every line misses and evicts the LRU way — the regime the
// way-major layout is not built for).
func benchDMAStream(b *testing.B, before string, build func(parent memsys.Port) (llc memsys.Port, recycle func())) {
	const dma, span = 4096, 8 << 20
	sweep := func(p memsys.Port, from, to mem.Addr) {
		var at vclock.Time
		for a := from; a < to; a += dma {
			at = p.Access(at, mem.Read, 0x1000_0000+a, dma)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		llc, recycle := build(dram.New(dram.DDR4))
		fabric := interconnect.New(interconnect.PCIe400, llc)
		start := mem.Addr(0)
		switch before {
		case "warm":
			sweep(fabric, 0, span)
		case "full":
			start = 40 << 20
			sweep(fabric, 0, start)
		}
		b.StartTimer()
		sweep(fabric, start, start+span)
		b.StopTimer()
		recycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(span/64), "ns/line")
}

func buildCache(parent memsys.Port) (memsys.Port, func()) {
	c := New(LLC, parent)
	return c, c.Recycle
}

func buildRef(parent memsys.Port) (memsys.Port, func()) {
	c := pooledRefs.newRef(LLC, parent)
	return c, func() { c.recycle(pooledRefs) }
}

func BenchmarkDMAStreamCold(b *testing.B)     { benchDMAStream(b, "cold", buildCache) }
func BenchmarkDMAStreamWarm(b *testing.B)     { benchDMAStream(b, "warm", buildCache) }
func BenchmarkDMAStreamEvict(b *testing.B)    { benchDMAStream(b, "full", buildCache) }
func BenchmarkDMAStreamColdRef(b *testing.B)  { benchDMAStream(b, "cold", buildRef) }
func BenchmarkDMAStreamWarmRef(b *testing.B)  { benchDMAStream(b, "warm", buildRef) }
func BenchmarkDMAStreamEvictRef(b *testing.B) { benchDMAStream(b, "full", buildRef) }
