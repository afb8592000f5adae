package cachesim

import (
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

// refCache is the set-major cache this package shipped before the
// way-major plane: one []refLine{tagbits,lru} array per set, every
// lookup scanning all ways, an epoch stamp in each tag word for O(1)
// recycling. It is kept as the executable specification: the
// differential test, the fuzz target and the *Ref benchmarks drive Cache
// and refCache side by side, and Cache must match it in every returned
// time, every counter and every parent access.
type refCache struct {
	cfg    Config
	parent memsys.Port

	sets     [][]refLine
	slab     []refLine // carved into per-set arrays on first touch
	setMask  mem.Addr
	lineBits uint
	stamp    uint64 // epoch<<refEpochShift | refValid: the low tagbits of every live line

	lruClock int64
	hint     [hintSlots]uint8

	Hits, Misses, Evictions, Writebacks int64
}

type refLine struct {
	tagbits uint64 // lineAddr<<18 | epoch<<2 | dirty<<1 | valid
	lru     int64
}

const (
	refValid      = 1 << 0
	refDirty      = 1 << 1
	refEpochShift = 2
	refEpochMask  = 1<<16 - 1
	refTagShift   = refEpochShift + 16
	refMaxTag     = 1<<(64-refTagShift) - 1
)

// refPool stands in for the construction pool: newRef hands a recycled
// refCache of the same geometry back, as New does.
type refPool map[Config][]*refCache

func (p refPool) newRef(cfg Config, parent memsys.Port) *refCache {
	if cfg.Pace == 0 {
		cfg.Pace = 2 * vclock.Nanosecond
	}
	if list := p[cfg]; len(list) > 0 {
		c := list[len(list)-1]
		p[cfg] = list[:len(list)-1]
		c.parent = parent
		return c
	}
	nSets := cfg.Size / cfg.LineSize / cfg.Assoc
	c := &refCache{cfg: cfg, parent: parent, sets: make([][]refLine, nSets), setMask: mem.Addr(nSets - 1), stamp: refValid}
	for bits := cfg.LineSize; bits > 1; bits >>= 1 {
		c.lineBits++
	}
	return c
}

func (l *refLine) dirty() bool   { return l.tagbits&refDirty != 0 }
func (l *refLine) tag() mem.Addr { return mem.Addr(l.tagbits >> refTagShift) }

func (c *refCache) live(l *refLine) bool {
	return l.tagbits&(1<<refTagShift-1)&^refDirty == c.stamp
}

func (c *refCache) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if size <= 0 {
		size = 1
	}
	done := at
	first := addr >> c.lineBits
	last := (addr + mem.Addr(size) - 1) >> c.lineBits
	t := at
	for ln := first; ln <= last; ln++ {
		if d := c.accessLine(t, kind, ln); d > done {
			done = d
		}
		t = t.Add(c.cfg.Pace)
	}
	return done
}

func (c *refCache) AccessOne(at vclock.Time, kind mem.AccessKind, addr mem.Addr) vclock.Time {
	return c.accessLine(at, kind, addr>>c.lineBits)
}

func (c *refCache) Hit(kind mem.AccessKind, addr mem.Addr) bool {
	lineAddr := addr >> c.lineBits
	lines := c.sets[lineAddr&c.setMask]
	way := int(c.hint[lineAddr%hintSlots])
	if way >= len(lines) || lines[way].tagbits&^refDirty != uint64(lineAddr)<<refTagShift|c.stamp {
		return false
	}
	c.Hits++
	c.lruClock++
	lines[way].lru = c.lruClock
	lines[way].tagbits |= uint64(kind) * refDirty
	return true
}

func (c *refCache) accessLine(at vclock.Time, kind mem.AccessKind, lineAddr mem.Addr) vclock.Time {
	if c.sets[lineAddr&c.setMask] == nil {
		if len(c.slab) < c.cfg.Assoc {
			c.slab = make([]refLine, min(1024, len(c.sets))*c.cfg.Assoc)
		}
		c.sets[lineAddr&c.setMask] = c.slab[:c.cfg.Assoc:c.cfg.Assoc]
		c.slab = c.slab[c.cfg.Assoc:]
	}
	lines := c.sets[lineAddr&c.setMask]
	c.lruClock++

	want := uint64(lineAddr)<<refTagShift | c.stamp
	for i := range lines {
		l := &lines[i]
		if l.tagbits&^refDirty == want {
			c.Hits++
			l.lru = c.lruClock
			if kind == mem.Write {
				l.tagbits |= refDirty
			}
			c.hint[lineAddr%hintSlots] = uint8(i)
			return at.Add(c.cfg.HitLatency)
		}
	}

	c.Misses++
	victim := 0
	for i := range lines {
		if !c.live(&lines[i]) {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	fetchStart := at.Add(c.cfg.HitLatency)
	v := &lines[victim]
	if c.live(v) {
		c.Evictions++
		if v.dirty() {
			c.Writebacks++
			c.parent.Access(fetchStart, mem.Write, v.tag()<<c.lineBits, c.cfg.LineSize)
		}
	}
	done := c.parent.Access(fetchStart, mem.Read, lineAddr<<c.lineBits, c.cfg.LineSize)
	if lineAddr > refMaxTag {
		panic("cachesim: line address exceeds packed tag range")
	}
	tb := want
	if kind == mem.Write {
		tb |= refDirty
	}
	*v = refLine{tagbits: tb, lru: c.lruClock}
	c.hint[lineAddr%hintSlots] = uint8(victim)
	return done
}

// recycle is the old Recycle: an epoch bump makes every line dead. (The
// fuzzer does reach the 2^16th generation of one pooled cache.)
func (c *refCache) recycle(p refPool) {
	c.stamp += 1 << refEpochShift
	if c.stamp>>refEpochShift > refEpochMask {
		// Epoch exhausted: stale lines from 2^16 generations ago could
		// alias the wrapped stamp, so retire this cache to the GC instead.
		return
	}
	c.parent = nil
	c.lruClock = 0
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
	p[c.cfg] = append(p[c.cfg], c)
}
