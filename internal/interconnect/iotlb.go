package interconnect

import (
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// IOTLBConfig models the I/O address translation the paper leaves as
// future work (§7: "NEX does not yet account for the cost of virtual
// memory address translation for accelerator DMAs, which involves I/O
// TLBs... adding I/O TLB modeling simply requires extending the current
// memory model"). This extends it: device-side DMAs are translated
// through a per-device IOTLB; misses pay a page-table walk through the
// memory target.
type IOTLBConfig struct {
	Entries  int             // TLB capacity (fully associative, LRU)
	PageBits uint            // page size = 1<<PageBits (default 12: 4KB)
	HitLat   vclock.Duration // translation hit latency (default 2ns)
	// WalkReads is the number of dependent page-table reads on a miss
	// (default 4: a 4-level walk); each traverses the memory target.
	WalkReads int
}

func (c IOTLBConfig) withDefaults() IOTLBConfig {
	if c.Entries <= 0 {
		c.Entries = 64
	}
	if c.PageBits == 0 {
		c.PageBits = 12
	}
	if c.HitLat == 0 {
		c.HitLat = 2 * vclock.Nanosecond
	}
	if c.WalkReads == 0 {
		c.WalkReads = 4
	}
	return c
}

// iotlb is the runtime state: a fully associative page map with LRU
// stamps.
type iotlb struct {
	cfg     IOTLBConfig
	entries map[mem.Addr]int64 // page -> last-use stamp
	clock   int64

	Hits, Misses int64
}

func newIOTLB(cfg IOTLBConfig) *iotlb {
	cfg = cfg.withDefaults()
	return &iotlb{cfg: cfg, entries: make(map[mem.Addr]int64)}
}

// translate charges translation for [addr, addr+size) at time at: every
// covered page is looked up; each miss performs a dependent page-table
// walk through the fabric's memory target. It returns the time at which
// the translated access may start.
func (t *iotlb) translate(f *Fabric, at vclock.Time, addr mem.Addr, size int) vclock.Time {
	if size <= 0 {
		size = 1
	}
	ready := at
	first := addr >> t.cfg.PageBits
	last := (addr + mem.Addr(size) - 1) >> t.cfg.PageBits
	for page := first; page <= last; page++ {
		t.clock++
		if _, ok := t.entries[page]; ok {
			t.Hits++
			t.entries[page] = t.clock
			if r := at.Add(t.cfg.HitLat); r > ready {
				ready = r
			}
			continue
		}
		t.Misses++
		// Dependent page-table walk: WalkReads serialized reads of page
		// table entries through the memory system (they hit caches like
		// any other access).
		walk := at
		pteBase := mem.Addr(0xF000_0000) + page*8 // modeled PTE locations
		for i := 0; i < t.cfg.WalkReads; i++ {
			walk = f.target.Access(walk, mem.Read, pteBase+mem.Addr(i)*4096, 8)
		}
		if walk > ready {
			ready = walk
		}
		// Insert with LRU eviction.
		if len(t.entries) >= t.cfg.Entries {
			var victim mem.Addr
			oldest := int64(1<<63 - 1)
			for p, stamp := range t.entries {
				if stamp < oldest {
					oldest, victim = stamp, p
				}
			}
			delete(t.entries, victim)
		}
		t.entries[page] = t.clock
	}
	return ready
}

// EnableIOTLB attaches an I/O TLB to the fabric: subsequent DMAs are
// translated before they traverse the link.
func (f *Fabric) EnableIOTLB(cfg IOTLBConfig) {
	f.tlb = newIOTLB(cfg)
}
