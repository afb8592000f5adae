// Package mem implements the simulated physical memory shared by the host
// CPUs and the accelerators.
//
// Memory is sparse (allocated in fixed-size pages on first touch) and
// supports per-region protection hooks: the NEX runtime protects the MMIO
// and task-buffer regions so that application accesses to them fault into
// the runtime, mirroring the paper's mprotect()+ptrace trap mechanism
// (§3.2) on a simulated substrate.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// PageSize is the allocation granularity of the sparse memory.
const PageSize = 4096

// Addr is a simulated physical address.
type Addr uint64

// AccessKind distinguishes reads from writes in fault hooks.
type AccessKind int

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// FaultHandler is invoked when a protected region is accessed through the
// faulting accessors. The handler runs before the access completes; after
// it returns, the access proceeds against the backing memory (mirroring
// how the NEX runtime completes the faulting instruction after resolving
// the trap).
type FaultHandler func(kind AccessKind, addr Addr, size int)

// Region is a named span of the physical address space.
type Region struct {
	Name  string
	Base  Addr
	Size  uint64
	hook  FaultHandler
	armed bool
}

// Contains reports whether [addr, addr+size) lies within the region.
func (r *Region) Contains(addr Addr, size int) bool {
	return addr >= r.Base && uint64(addr)+uint64(size) <= uint64(r.Base)+r.Size
}

// Memory is a sparse simulated physical memory. By default it is not
// safe for concurrent use (all engines are single-threaded event
// loops); in parallel intra-run mode SetConcurrent arms a page-table
// lock so that the host and device stepper goroutines may access
// *disjoint* byte ranges concurrently. Overlapping concurrent accesses
// remain a contract violation (the data race they would constitute is
// exactly the determinism bug, and `go test -race` surfaces it).
type Memory struct {
	pages   map[Addr][]byte // keyed by page base
	owned   [][]byte        // every page in pages, in allocation order, for Release
	regions []*Region       // sorted by Base
	next    Addr            // bump allocator for Alloc
	mu      *sync.RWMutex   // nil unless SetConcurrent was called

	// The page the serial path touched last: DMAs and task-buffer
	// accesses walk a page at a time, so most lookups skip the map.
	// Unused once mu is armed.
	lastBase Addr
	last     []byte
}

// SetConcurrent arms the page-table lock for cross-goroutine use. The
// serial path keeps its zero-overhead lookups when this is never
// called.
func (m *Memory) SetConcurrent() {
	if m.mu == nil {
		m.mu = new(sync.RWMutex)
	}
}

// New returns an empty memory whose allocator starts at base.
func New(base Addr) *Memory {
	return &Memory{pages: make(map[Addr][]byte), next: base}
}

// Alloc reserves a new named region of at least size bytes, rounded up to
// whole pages, and returns it. Regions never overlap.
func (m *Memory) Alloc(name string, size uint64) *Region {
	if size == 0 {
		panic("mem: Alloc of zero bytes")
	}
	rounded := (size + PageSize - 1) / PageSize * PageSize
	r := &Region{Name: name, Base: m.next, Size: rounded}
	m.next += Addr(rounded)
	m.regions = append(m.regions, r) // next only grows, so regions stays sorted by Base
	return r
}

// Protect arms a fault handler on the region. Subsequent ReadFaulting /
// WriteFaulting calls that touch the region invoke the handler first.
func (m *Memory) Protect(r *Region, h FaultHandler) {
	r.hook = h
	r.armed = true
}

// Unprotect disarms the region's fault handler.
func (m *Memory) Unprotect(r *Region) { r.armed = false }

// RegionAt returns the region containing addr, or nil.
func (m *Memory) RegionAt(addr Addr) *Region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].Base+Addr(m.regions[i].Size) > addr
	})
	if i < len(m.regions) && addr >= m.regions[i].Base {
		return m.regions[i]
	}
	return nil
}

//simlint:hotpath once per page-sized piece of every functional access
func (m *Memory) page(addr Addr) []byte {
	base := addr &^ (PageSize - 1)
	if m.mu != nil {
		m.mu.RLock()
		p, ok := m.pages[base]
		m.mu.RUnlock()
		if ok {
			return p
		}
		m.mu.Lock()
		p, ok = m.pages[base]
		if !ok {
			p = m.newPage(base)
		}
		m.mu.Unlock()
		return p
	}
	if m.last != nil && m.lastBase == base {
		return m.last
	}
	p, ok := m.pages[base]
	if !ok {
		p = m.newPage(base)
	}
	m.lastBase, m.last = base, p
	return p
}

// freePages recycles the pages of released memories: a simulation
// touches tens of megabytes of pages, and allocating, zeroing and
// garbage-collecting them afresh for every run of a sweep costs more
// than the accesses themselves. Pages are zeroed when they are taken,
// so a recycled page is indistinguishable from a fresh one.
var freePages struct {
	sync.Mutex
	list [][]byte
}

// maxFreePages bounds the free list (16 MB): the evaluation's largest
// system touches about 2,500 pages, so a sweep that builds one system
// after another never allocates; anything beyond the bound goes to the GC.
const maxFreePages = 4096

// newPage maps a zeroed page at base, from the free list when it has one.
func (m *Memory) newPage(base Addr) []byte {
	var p []byte
	freePages.Lock()
	if n := len(freePages.list); n > 0 {
		p, freePages.list[n-1] = freePages.list[n-1], nil
		freePages.list = freePages.list[:n-1]
	}
	freePages.Unlock()
	if p == nil {
		p = make([]byte, PageSize)
	} else {
		clear(p)
	}
	m.pages[base] = p
	m.owned = append(m.owned, p)
	return p
}

// Release hands the memory's pages to the free list for a later New and
// leaves the memory empty: every address reads as zero again. Call it
// when the simulated system is discarded and nothing accesses the memory
// any more; a second call is a no-op.
func (m *Memory) Release() {
	freePages.Lock()
	room := maxFreePages - len(freePages.list)
	freePages.list = append(freePages.list, m.owned[:min(room, len(m.owned))]...)
	freePages.Unlock()
	clear(m.pages)
	m.owned, m.last = nil, nil
}

// ReadAt copies len(buf) bytes at addr into buf without triggering
// protection (a "zero-cost" functional access in DSim terms, §5).
func (m *Memory) ReadAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr)
		off := int(addr & (PageSize - 1))
		n := copy(buf, p[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// WriteAt copies buf to addr without triggering protection.
func (m *Memory) WriteAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr)
		off := int(addr & (PageSize - 1))
		n := copy(p[off:], buf)
		buf = buf[n:]
		addr += Addr(n)
	}
}

// ReadFaulting is ReadAt through the protection layer: if the access
// touches an armed region, its handler runs first.
func (m *Memory) ReadFaulting(addr Addr, buf []byte) {
	m.maybeFault(Read, addr, len(buf))
	m.ReadAt(addr, buf)
}

// WriteFaulting is WriteAt through the protection layer.
func (m *Memory) WriteFaulting(addr Addr, buf []byte) {
	m.maybeFault(Write, addr, len(buf))
	m.WriteAt(addr, buf)
}

func (m *Memory) maybeFault(kind AccessKind, addr Addr, size int) {
	if r := m.RegionAt(addr); r != nil && r.armed && r.hook != nil {
		r.hook(kind, addr, size)
	}
}

// Convenience fixed-width accessors (little-endian, matching the modeled
// x86 host).

// ReadU32 reads a 32-bit little-endian value (non-faulting).
func (m *Memory) ReadU32(addr Addr) uint32 {
	var b [4]byte
	m.ReadAt(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a 32-bit little-endian value (non-faulting).
func (m *Memory) WriteU32(addr Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteAt(addr, b[:])
}

// ReadU64 reads a 64-bit little-endian value (non-faulting).
func (m *Memory) ReadU64(addr Addr) uint64 {
	var b [8]byte
	m.ReadAt(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a 64-bit little-endian value (non-faulting).
func (m *Memory) WriteU64(addr Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteAt(addr, b[:])
}

// ReadU32Faulting reads a 32-bit value through the protection layer.
func (m *Memory) ReadU32Faulting(addr Addr) uint32 {
	var b [4]byte
	m.ReadFaulting(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32Faulting writes a 32-bit value through the protection layer.
func (m *Memory) WriteU32Faulting(addr Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteFaulting(addr, b[:])
}

// ReadU64Faulting reads a 64-bit value through the protection layer.
func (m *Memory) ReadU64Faulting(addr Addr) uint64 {
	var b [8]byte
	m.ReadFaulting(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64Faulting writes a 64-bit value through the protection layer.
func (m *Memory) WriteU64Faulting(addr Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteFaulting(addr, b[:])
}

func (r *Region) String() string {
	return fmt.Sprintf("%s[%#x+%#x]", r.Name, uint64(r.Base), r.Size)
}
