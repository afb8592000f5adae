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
	"sync"

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
type Cache struct {
	cfg    Config
	parent memsys.Port

	sets     []set
	slab     []line // backing store carved into per-set arrays on first touch
	setMask  mem.Addr
	lineBits uint
	stamp    uint64 // epoch<<epochShift | lineValid: the low tagbits of every live line

	lruClock int64

	// hint remembers, per low line-address bits, the way that line was
	// last hit or filled in, so Hit can check one way instead of scanning
	// the set. It is a lookup accelerator only: a stale or aliased entry
	// costs a scan, never a wrong answer, because the tag is still compared.
	hint [hintSlots]uint8

	// Stats.
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// line packs the tag, a recycling epoch, and the valid/dirty flags into
// one word so a set's line array is 16 bytes per way: streaming workloads
// touch every set of a large LLC once per run, so the footprint of this
// struct is the dominant allocation of a whole simulation. The epoch lets
// Recycle invalidate every line in O(1) — a line is live only when its
// stamped epoch equals the cache's current one — so a pooled hierarchy
// restarts cold without zeroing megabytes of slab.
type line struct {
	tagbits uint64 // lineAddr<<18 | epoch<<2 | dirty<<1 | valid
	lru     int64  // higher = more recent
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1

	epochShift = 2
	epochBits  = 16
	epochMask  = 1<<epochBits - 1
	tagShift   = epochShift + epochBits
	// maxTag bounds the packable line address: 46 tag bits cover 2^52
	// bytes of simulated physical address space with 64-byte lines.
	maxTag = 1<<(64-tagShift) - 1

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

func (l *line) dirty() bool   { return l.tagbits&lineDirty != 0 }
func (l *line) tag() mem.Addr { return mem.Addr(l.tagbits >> tagShift) }

// live reports whether the line is valid in the cache's current epoch.
func (c *Cache) live(l *line) bool {
	return l.tagbits&(1<<tagShift-1)&^lineDirty == c.stamp
}

type set struct {
	lines []line
}

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
	// behaviorally indistinguishable from a fresh build (every line is
	// invalid in the new epoch, stats are zero), but the slab and set
	// arrays come for free.
	pool.Lock()
	if list := pool.m[cfg]; len(list) > 0 {
		c := list[len(list)-1]
		pool.m[cfg] = list[:len(list)-1]
		pool.Unlock()
		c.parent = parent
		return c
	}
	pool.Unlock()
	// Line arrays are allocated lazily on first touch of a set: a large
	// LLC has tens of thousands of sets, most of which a short simulation
	// never references, and every system build constructs a fresh
	// hierarchy.
	c := &Cache{cfg: cfg, parent: parent, sets: make([]set, nSets), setMask: mem.Addr(nSets - 1), stamp: lineValid}
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
	lines := c.sets[lineAddr&c.setMask].lines
	way := int(c.hint[lineAddr%hintSlots])
	if way >= len(lines) || lines[way].tagbits&^lineDirty != uint64(lineAddr)<<tagShift|c.stamp {
		return false
	}
	c.Hits++
	c.lruClock++
	lines[way].lru = c.lruClock
	// Branch-free dirty marking: loads and stores alternate at random, so
	// a branch on kind would mispredict on the host.
	lines[way].tagbits |= uint64(kind) * lineDirty
	return true
}

func (c *Cache) accessLine(at vclock.Time, kind mem.AccessKind, lineAddr mem.Addr) vclock.Time {
	s := &c.sets[lineAddr&c.setMask]
	if s.lines == nil {
		// Carve the set's line array from a chunked slab: lazy (a short
		// simulation touching few sets allocates little) without paying
		// one allocation per set when a streaming workload sweeps the
		// whole index space.
		if len(c.slab) < c.cfg.Assoc {
			n := 1024 * c.cfg.Assoc
			if max := len(c.sets) * c.cfg.Assoc; n > max {
				n = max
			}
			c.slab = make([]line, n)
		}
		s.lines = c.slab[:c.cfg.Assoc:c.cfg.Assoc]
		c.slab = c.slab[c.cfg.Assoc:]
	}
	tag := lineAddr // full line address as tag (set bits redundant but harmless)
	c.lruClock++

	// A hit must match address, epoch, and the valid bit in one compare;
	// only the dirty bit may differ.
	want := uint64(tag)<<tagShift | c.stamp
	for i := range s.lines {
		l := &s.lines[i]
		if l.tagbits&^lineDirty == want {
			c.Hits++
			l.lru = c.lruClock
			if kind == mem.Write {
				l.tagbits |= lineDirty
			}
			c.hint[lineAddr%hintSlots] = uint8(i)
			return at.Add(c.cfg.HitLatency)
		}
	}

	// Miss: fetch the line from the parent (after the tag check), evict
	// the LRU victim, writing it back first if dirty.
	c.Misses++
	victim := 0
	for i := range s.lines {
		if !c.live(&s.lines[i]) {
			victim = i
			break
		}
		if s.lines[i].lru < s.lines[victim].lru {
			victim = i
		}
	}
	fetchStart := at.Add(c.cfg.HitLatency)
	v := &s.lines[victim]
	if c.live(v) {
		c.Evictions++
		if v.dirty() {
			c.Writebacks++
			// The writeback occupies the parent but does not delay the
			// demand fetch's completion beyond the parent's own queueing.
			c.parent.Access(fetchStart, mem.Write, v.tag()<<c.lineBits, c.cfg.LineSize)
		}
	}
	done := c.parent.Access(fetchStart, mem.Read, lineAddr<<c.lineBits, c.cfg.LineSize)
	if tag > maxTag {
		panic("cachesim: line address exceeds packed tag range")
	}
	tb := want
	if kind == mem.Write {
		tb |= lineDirty
	}
	*v = line{tagbits: tb, lru: c.lruClock}
	c.hint[lineAddr%hintSlots] = uint8(victim)
	return done
}

// MissRate returns misses/(hits+misses), or 0 with no traffic.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// Flush invalidates all lines, writing back dirty ones at time at; it
// returns the completion time of the last writeback.
func (c *Cache) Flush(at vclock.Time) vclock.Time {
	done := at
	for si := range c.sets {
		for li := range c.sets[si].lines {
			l := &c.sets[si].lines[li]
			if c.live(l) && l.dirty() {
				c.Writebacks++
				if d := c.parent.Access(at, mem.Write, l.tag()<<c.lineBits, c.cfg.LineSize); d > done {
					done = d
				}
			}
			l.tagbits = 0
		}
	}
	return done
}

// pool holds recycled caches per configuration. Building a hierarchy for
// every sweep point allocates (and zeroes) megabytes of line slab; a
// recycled cache reuses its slab and set arrays, made cold again by the
// epoch bump, so repeated Build/Release cycles stop paying that cost.
var pool = struct {
	sync.Mutex
	m map[Config][]*Cache
}{m: make(map[Config][]*Cache)}

// Recycle resets the cache to its just-built state (no live lines, zero
// stats) and returns it to the construction pool. Nothing is written
// back — the cache models timing only, and the caller is discarding the
// whole simulated system. The cache must not be used after Recycle.
func (c *Cache) Recycle() {
	c.stamp += 1 << epochShift
	if c.stamp>>epochShift > epochMask {
		// Epoch exhausted: stale lines from 2^16 generations ago could
		// alias the wrapped stamp, so retire this cache to the GC instead.
		return
	}
	c.parent = nil
	c.lruClock = 0
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
	pool.Lock()
	pool.m[c.cfg] = append(pool.m[c.cfg], c)
	pool.Unlock()
}

// Typical level configurations used across the evaluation, loosely
// modeled on the paper's Xeon Gold 6248R host.
var (
	L1D = Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 1333 * vclock.Picosecond}   // ~4 cycles @3GHz
	L2  = Config{Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 16, HitLatency: 4666 * vclock.Picosecond}    // ~14 cycles
	LLC = Config{Name: "LLC", Size: 32 << 20, LineSize: 64, Assoc: 16, HitLatency: 16666 * vclock.Picosecond} // ~50 cycles
)
