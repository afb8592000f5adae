// Package mem implements the simulated physical memory shared by the host
// CPUs and the accelerators.
//
// Memory is sparse (allocated in fixed-size pages on first touch) and
// supports per-region protection hooks: the NEX runtime protects the MMIO
// and task-buffer regions so that application accesses to them fault into
// the runtime, mirroring the paper's mprotect()+ptrace trap mechanism
// (§3.2) on a simulated substrate.
//
// Bulk inputs that many simulated systems share (operand matrices,
// message images, bitstreams) are staged as immutable Blobs that a
// Memory maps copy-on-write, and identified to the devices' plan memos
// by page content sums (Sum) instead of by their bytes (DESIGN.md §4.3).
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
	pages   map[Addr]entry // keyed by page base
	owned   [][]byte       // every private page ever mapped, in allocation order, for Release
	regions []*Region      // sorted by Base
	next    Addr           // bump allocator for Alloc
	mu      *sync.RWMutex  // nil unless SetConcurrent was called
	stats   Stats

	// The page the serial path touched last: DMAs and task-buffer
	// accesses walk a page at a time, so most lookups skip the map. A
	// write may use it only when it holds a private page. Unused once mu
	// is armed.
	lastBase    Addr
	last        []byte
	lastPrivate bool
}

// entry is one mapped page: private to the memory (blob == nil), or
// page idx of a Blob, read in place and replaced by a private copy on the
// first write to it.
type entry struct {
	data []byte
	blob *Blob
	idx  int
}

// Stats counts a memory's pages since New: Private pages were taken
// zeroed from the allocator or the free list, Aliased pages were mapped
// from Blobs, and Unshared of those were copied because something wrote
// to them. Observability only; read it while nothing accesses the memory.
type Stats struct {
	Private, Aliased, Unshared int
}

// Stats returns the page counts.
func (m *Memory) Stats() Stats { return m.stats }

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
	return &Memory{pages: make(map[Addr]entry), next: base}
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

// lookup reads base's page-table entry, under the read lock when armed.
func (m *Memory) lookup(base Addr) (entry, bool) {
	if m.mu != nil {
		m.mu.RLock()
	}
	e, ok := m.pages[base]
	if m.mu != nil {
		m.mu.RUnlock()
	}
	return e, ok
}

// page returns the page holding addr: for a read whatever is mapped there,
// for a write a private page.
//
//simlint:hotpath once per page-sized piece of every functional access
func (m *Memory) page(addr Addr, write bool) []byte {
	base := addr &^ (PageSize - 1)
	if m.mu != nil {
		e, ok := m.lookup(base)
		if !ok || write && e.blob != nil {
			m.mu.Lock()
			e = m.fault(base, write)
			m.mu.Unlock()
		}
		return e.data
	}
	if m.last != nil && m.lastBase == base && (m.lastPrivate || !write) {
		return m.last
	}
	e := m.fault(base, write)
	m.lastBase, m.last, m.lastPrivate = base, e.data, e.blob == nil
	return e.data
}

// fault looks base up past the memo and the read lock: an untouched
// address gets a zeroed private page, and a write to an aliased page
// replaces it by a private copy (the copy-on-write; the Blob and every
// other memory mapping it keep the original). Callers hold mu for writing
// when it is armed.
func (m *Memory) fault(base Addr, write bool) entry {
	e, ok := m.pages[base]
	if ok && (e.blob == nil || !write) {
		return e
	}
	p := m.newPage(base)
	if ok {
		copy(p, e.data)
		m.stats.Unshared++
	}
	return entry{data: p}
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
	m.pages[base] = entry{data: p}
	m.owned = append(m.owned, p)
	m.stats.Private++
	return p
}

// Release hands the memory's private pages to the free list for a later
// New, drops its aliases (a Blob's pages are never pooled) and leaves the
// memory empty: every address reads as zero again. Call it when the
// simulated system is discarded and nothing accesses the memory any more;
// a second call is a no-op.
func (m *Memory) Release() {
	freePages.Lock()
	room := maxFreePages - len(freePages.list)
	freePages.list = append(freePages.list, m.owned[:min(room, len(m.owned))]...)
	freePages.Unlock()
	clear(m.pages)
	m.owned, m.last, m.lastPrivate = nil, nil, false
}

// ReadAt copies len(buf) bytes at addr into buf without triggering
// protection (a "zero-cost" functional access in DSim terms, §5).
func (m *Memory) ReadAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr, false)
		off := int(addr & (PageSize - 1))
		n := copy(buf, p[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// WriteAt copies buf to addr without triggering protection.
func (m *Memory) WriteAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr, true)
		off := int(addr & (PageSize - 1))
		n := copy(p[off:], buf)
		buf = buf[n:]
		addr += Addr(n)
	}
}

// Blob is an immutable byte image, zero-padded to whole pages, that any
// number of memories map copy-on-write. NewBlob copies its input and
// nothing outside this package can reach the copy, so a Blob's bytes —
// and the page sums derived from them once — hold for the process's life
// however many systems, goroutines and runs share it.
type Blob struct {
	data []byte
	size int
	once sync.Once
	sums []uint64 // Hash(0, page) per page, filled by once
}

// NewBlob returns a Blob holding a copy of p.
func NewBlob(p []byte) *Blob {
	b := &Blob{data: make([]byte, (len(p)+PageSize-1)&^(PageSize-1)), size: len(p)}
	copy(b.data, p)
	return b
}

// Len returns the length of the image NewBlob copied, without padding.
func (b *Blob) Len() int { return b.size }

func (b *Blob) sum(idx int) uint64 {
	b.once.Do(func() {
		b.sums = make([]uint64, len(b.data)/PageSize)
		for i := range b.sums {
			b.sums[i] = Hash(0, b.data[i*PageSize:(i+1)*PageSize])
		}
	})
	return b.sums[idx]
}

// Map makes b's pages the contents of [addr, addr+pages), replacing
// whatever was there, without copying them: reads see b's bytes in place
// and the first write to a page gives this memory its own copy of it.
// addr must be page-aligned.
func (m *Memory) Map(addr Addr, b *Blob) {
	if addr&(PageSize-1) != 0 {
		panic(fmt.Sprintf("mem: Map at unaligned address %#x", uint64(addr)))
	}
	if m.mu != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	pages := len(b.data) / PageSize
	for i := 0; i < pages; i++ {
		m.pages[addr+Addr(i*PageSize)] = entry{data: b.data[i*PageSize : (i+1)*PageSize : (i+1)*PageSize], blob: b, idx: i}
	}
	m.stats.Aliased += pages
	m.last, m.lastPrivate = nil, false
}

// zeroSum is the content sum of a page nothing was written to.
var zeroSum = Hash(0, make([]byte, PageSize))

// Sum fingerprints the contents of the whole pages overlapping
// [addr, addr+n): equal page contents give equal sums, however the pages
// came to hold them. An aliased page answers from its Blob's cached sums
// and an untouched one from a constant; only a private page is hashed, in
// place. Like any read, it must not overlap a concurrent write.
//
//simlint:hotpath once per page of every span a device's plan key covers
func (m *Memory) Sum(addr Addr, n int) uint64 {
	var h uint64
	for base, end := addr&^(PageSize-1), addr+Addr(n); base < end; base += PageSize {
		e, ok := m.lookup(base)
		switch {
		case !ok:
			h = Mix(h, zeroSum)
		case e.blob != nil:
			h = Mix(h, e.blob.sum(e.idx))
		default:
			h = Mix(h, Hash(0, e.data))
		}
	}
	return h
}

const (
	fnvBasis = 14695981039346656037
	fnvPrime = 1099511628211
)

// Mix folds one word into the running hash h; zero starts a new hash.
// It is an FNV-1a step followed by a fold of the high half into the low:
// a multiply alone only ever carries a difference upwards, so differences
// in the top bytes of two successive words could cancel each other.
func Mix(h, v uint64) uint64 {
	if h == 0 {
		h = fnvBasis
	}
	h = (h ^ v) * fnvPrime
	return h ^ h>>32
}

// Hash folds p into the running hash h, a word at a time. It is the
// tree's one content hash for process-local memo keys: never serialized
// or compared across processes, so it owes nothing to canonical FNV.
func Hash(h uint64, p []byte) uint64 {
	for ; len(p) >= 8; p = p[8:] {
		h = Mix(h, binary.LittleEndian.Uint64(p))
	}
	for _, c := range p {
		h = Mix(h, uint64(c))
	}
	return h
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
