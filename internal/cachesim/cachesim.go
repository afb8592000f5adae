// Package cachesim implements set-associative cache latency simulators
// (L1, L2, LLC) that stack hierarchically through the memsys.Port
// interface (paper §4: "Multiple cache simulators can also be stacked,
// one for each level").
//
// The model is a write-back, write-allocate cache with true LRU
// replacement per set. Only timing-relevant state is kept (tags and dirty
// bits); data always lives in the simulated physical memory, so caches
// never need to be coherent with functional state.
package cachesim

import (
	"slices"
	"sync"
	"unsafe"

	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int             // total bytes
	LineSize   int             // bytes per line (power of two)
	Assoc      int             // ways per set
	HitLatency vclock.Duration // latency of a hit (and tag check on miss)
	// Pace is the issue interval between successive lines of one large
	// request (the cache's streaming bandwidth); defaults to one line
	// per 2ns (~32 B/ns).
	Pace vclock.Duration
}

// Cache is a single cache level backed by a parent Port.
//
// Line state is laid out way-major: way w of set s is plane[w*stride+s],
// so consecutive line addresses (consecutive sets) sit next to each
// other in host memory — a streaming DMA walks the plane sequentially,
// four simulated lines per host cache line. fill[s] counts the live ways
// of set s, and those are always the prefix [0,fill[s]): a miss fills
// the first dead way before it ever evicts, and Recycle — the only
// invalidation — empties every set. So a lookup scans fill[s] ways
// and a cold miss writes its way without reading it.
//
// The plane holds only as many ways as the deepest set has needed: it
// starts one way deep and grow doubles its way count when a miss wants a
// way beyond it, so a cache costs memory in proportion to what a run
// touches, not to the capacity it models. Ways are never given back — a
// recycled cache keeps its plane, and a way hint always names a way the
// plane has.
type Cache struct {
	cfg    Config
	parent memsys.Port

	plane    []entry  // ways [0, len/stride), meaningful only below fill
	fill     []uint16 // per set: ways [0,fill) are live
	stride   mem.Addr // plane pitch: set count plus a pad, see stridePad
	setMask  mem.Addr
	lineBits uint

	lruClock int64

	// hint remembers, per low line-address bits, the way that line was
	// last hit or filled in, so Hit can check one way instead of scanning
	// the set. It is a lookup accelerator only: a stale or aliased entry
	// costs a scan, never a wrong answer, because the way is still checked
	// against the fill count and the tag compared.
	hint [hintSlots]uint8

	// Stats.
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// entry is one way of one set. Tag and LRU stamp share a host cache
// line: a probe that hits reads the one and writes the other.
type entry struct {
	tag mem.Addr // lineAddr | dirty
	lru int64    // higher = more recent
}

const (
	// lineDirty is the top bit of a tag word; the line address has the
	// rest, which covers any address with lines of two bytes or more.
	lineDirty = 1 << 63
	maxTag    = lineDirty - 1

	// stridePad keeps the ways of one set out of a single host cache set:
	// with a power-of-two pitch, the 16 ways of an L2 set would sit exactly
	// 16 KB apart and evict each other from the host's L1 on every scan.
	// One host cache line of padding staggers them.
	stridePad = 4

	// hintSlots sizes the way-hint table: twice the lines of the L1 the
	// CPU model probes, so its resident lines rarely share a slot.
	hintSlots = 1024
)

// Hit multiplies the access kind into the dirty bit, which needs
// mem.Read == 0 and mem.Write == 1; anything else fails to compile here.
var (
	_ [0]struct{} = [mem.Read]struct{}{}
	_ [1]struct{} = [mem.Write]struct{}{}
)

// New builds a cache level. It panics on malformed geometry so
// misconfigurations fail at construction, not mid-simulation.
func New(cfg Config, parent memsys.Port) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cachesim: line size must be a positive power of two")
	}
	if cfg.Assoc <= 0 || cfg.Assoc > 256 {
		panic("cachesim: associativity must be in 1..256")
	}
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Assoc
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic("cachesim: set count must be a positive power of two (size/line/assoc mismatch)")
	}
	if parent == nil {
		panic("cachesim: nil parent port")
	}
	if cfg.Pace == 0 {
		cfg.Pace = 2 * vclock.Nanosecond
	}
	// Reuse a recycled cache of identical geometry when one is pooled:
	// behaviorally indistinguishable from a fresh build (every set is
	// empty, stats are zero), but the plane comes for free.
	pool.Lock()
	if list := pool.m[cfg]; len(list) > 0 {
		c := list[len(list)-1]
		pool.m[cfg] = list[:len(list)-1]
		pool.bytes -= c.bytes()
		pool.Unlock()
		c.parent = parent
		return c
	}
	pool.Unlock()
	stride := nSets + stridePad
	c := &Cache{cfg: cfg, parent: parent, stride: mem.Addr(stride), setMask: mem.Addr(nSets - 1),
		plane: make([]entry, stride), fill: make([]uint16, nSets)}
	for bits := cfg.LineSize; bits > 1; bits >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access implements memsys.Port. A request spanning multiple lines pays
// one lookup per line; the completion time is that of the last line.
func (c *Cache) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if size <= 0 {
		size = 1
	}
	done := at
	first := addr >> c.lineBits
	last := (addr + mem.Addr(size) - 1) >> c.lineBits
	t := at
	for ln := first; ln <= last; ln++ {
		d := c.accessLine(t, kind, ln)
		if d > done {
			done = d
		}
		// Consecutive lines of one request stream at the cache's
		// bandwidth, pipelined behind the first tag check.
		t = t.Add(c.cfg.Pace)
	}
	return done
}

// AccessOne is Access for a request contained in a single line — the
// common case for CPU-model loads and stores: one tag lookup, no
// streaming loop. Equivalent to Access(at, kind, addr, size) whenever
// addr..addr+size-1 stays within one line.
func (c *Cache) AccessOne(at vclock.Time, kind mem.AccessKind, addr mem.Addr) vclock.Time {
	return c.accessLine(at, kind, addr>>c.lineBits)
}

// Hit is an inlinable fast path for AccessOne: it looks only at the way
// the line holding addr was last seen in (c.hint). If the line is there
// it is touched exactly as AccessOne would touch it (hit count, LRU stamp,
// dirty bit) and Hit reports true; the completion time would be
// at+HitLatency. Otherwise — a miss, or a resident line whose hint was
// overwritten by a line sharing its slot — Hit reports false and has
// changed nothing, and the caller falls back to AccessOne.
//
//simlint:hotpath inlined into the CPU model's per-load/store loop
func (c *Cache) Hit(kind mem.AccessKind, addr mem.Addr) bool {
	lineAddr := addr >> c.lineBits
	set := lineAddr & c.setMask
	way := c.hint[lineAddr%hintSlots]
	w := &c.plane[mem.Addr(way)*c.stride+set]
	if uint16(way) >= c.fill[set] || w.tag&^lineDirty != lineAddr {
		return false
	}
	c.Hits++
	c.lruClock++
	w.lru = c.lruClock
	// Branch-free dirty marking: loads and stores alternate at random, so
	// a branch on kind would mispredict on the host.
	w.tag |= mem.Addr(kind) * lineDirty
	return true
}

//simlint:hotpath once per line of every DMA and every CPU-model miss
func (c *Cache) accessLine(at vclock.Time, kind mem.AccessKind, lineAddr mem.Addr) vclock.Time {
	set := lineAddr & c.setMask
	n := mem.Addr(c.fill[set])
	c.lruClock++

	// Only the dirty bit may differ between a live way and the line.
	for way, i := mem.Addr(0), set; way < n; way, i = way+1, i+c.stride {
		if w := &c.plane[i]; w.tag&^lineDirty == lineAddr {
			c.Hits++
			w.lru = c.lruClock
			w.tag |= mem.Addr(kind) * lineDirty
			c.hint[lineAddr%hintSlots] = uint8(way)
			return at.Add(c.cfg.HitLatency)
		}
	}

	// Miss: fetch the line from the parent (after the tag check) into the
	// first dead way, or, with the set full, over the LRU victim, writing
	// that back first if dirty.
	c.Misses++
	if lineAddr > maxTag {
		panic("cachesim: line address exceeds packed tag range")
	}
	fetchStart := at.Add(c.cfg.HitLatency)
	victim := n
	if int(n) < c.cfg.Assoc {
		c.fill[set] = uint16(n + 1)
		if int(n*c.stride+set) >= len(c.plane) {
			c.grow()
		}
	} else {
		victim = 0
		for way := mem.Addr(1); way < n; way++ {
			if c.plane[way*c.stride+set].lru < c.plane[victim*c.stride+set].lru {
				victim = way
			}
		}
		c.Evictions++
		if old := c.plane[victim*c.stride+set].tag; old&lineDirty != 0 {
			c.Writebacks++
			// The writeback occupies the parent but does not delay the
			// demand fetch's completion beyond the parent's own queueing.
			c.parent.Access(fetchStart, mem.Write, old&^lineDirty<<c.lineBits, c.cfg.LineSize)
		}
	}
	done := c.parent.Access(fetchStart, mem.Read, lineAddr<<c.lineBits, c.cfg.LineSize)
	c.plane[victim*c.stride+set] = entry{tag: lineAddr | mem.Addr(kind)*lineDirty, lru: c.lruClock}
	c.hint[lineAddr%hintSlots] = uint8(victim)
	return done
}

// grow doubles the plane's way count, up to the associativity. The plane
// is way-major, so the ways it had are a prefix of the new one and every
// index stays what it was.
func (c *Cache) grow() {
	ways := min(2*len(c.plane)/int(c.stride), c.cfg.Assoc)
	plane := make([]entry, ways*int(c.stride))
	copy(plane, c.plane)
	c.plane = plane
}

// pool holds recycled caches per configuration. Building a hierarchy for
// every sweep point allocates (and zeroes) megabytes of plane; a recycled
// cache reuses the plane it grew, made cold again by clearing the fill
// counts, so repeated Build/Release cycles stop paying that cost. The
// pool retains at most poolMaxBytes: a process that once built a system
// of many devices, or drove a few caches to their full depth, does not
// hold that memory for the rest of its life.
var pool = struct {
	sync.Mutex
	m     map[Config][]*Cache
	bytes int // sum of bytes() over m
}{m: make(map[Config][]*Cache)}

// poolMaxBytes covers the hierarchies of the largest catalogued system
// (eight devices' LLCs at the depth a run drives them to, sixteen cores'
// L1 and L2) several times over, and is four LLC planes at full depth.
const poolMaxBytes = 32 << 20

// bytes is the memory the cache's per-set state holds.
func (c *Cache) bytes() int {
	return len(c.plane)*int(unsafe.Sizeof(entry{})) + len(c.fill)*int(unsafe.Sizeof(c.fill[0]))
}

// Recycle resets the cache to its just-built state (no live lines, zero
// stats) and returns it to the construction pool, which then drops its
// largest caches until it is within poolMaxBytes again. Nothing is
// written back — the cache models timing only, and the caller is
// discarding the whole simulated system. The cache must not be used
// after Recycle.
func (c *Cache) Recycle() {
	clear(c.fill)
	c.parent = nil
	c.lruClock = 0
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
	pool.Lock()
	defer pool.Unlock()
	pool.m[c.cfg] = append(pool.m[c.cfg], c)
	pool.bytes += c.bytes()
	for pool.bytes > poolMaxBytes {
		var cfg Config
		at, most := 0, -1
		for k, list := range pool.m {
			for i, p := range list {
				if b := p.bytes(); b > most {
					cfg, at, most = k, i, b
				}
			}
		}
		pool.m[cfg] = slices.Delete(pool.m[cfg], at, at+1)
		pool.bytes -= most
	}
}

// Typical level configurations used across the evaluation, loosely
// modeled on the paper's Xeon Gold 6248R host.
var (
	L2  = Config{Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 16, HitLatency: 4666 * vclock.Picosecond}    // ~14 cycles
	LLC = Config{Name: "LLC", Size: 32 << 20, LineSize: 64, Assoc: 16, HitLatency: 16666 * vclock.Picosecond} // ~50 cycles
)
