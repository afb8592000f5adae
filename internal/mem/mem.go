// Package mem implements the simulated physical memory shared by the host
// CPUs and the accelerators.
//
// Memory is sparse (allocated in fixed-size pages on first touch). It has
// no protection layer: the paper's mprotect()+ptrace trap (§3.2) is the
// host engines' OpInteract request, which catches the devices up to the
// accessing thread's time before the access (DESIGN.md §8).
//
// Bulk inputs that many simulated systems share (operand matrices,
// message images, bitstreams) are staged as immutable Blobs that a
// Memory maps copy-on-write, and identified to the devices' plan memos
// by page content sums (Sum) instead of by their bytes (DESIGN.md §4.3).
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// PageSize is the allocation granularity of the sparse memory.
const PageSize = 4096

// Addr is a simulated physical address.
type Addr uint64

// AccessKind distinguishes reads from writes in timed accesses (DMAs and
// the memory hierarchy).
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

// Region is a named span of the physical address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// Memory is a sparse simulated physical memory. It is not safe for
// concurrent use: a simulation runs its host engine and its devices on
// one goroutine.
type Memory struct {
	pages map[Addr]entry // keyed by page base
	owned [][]byte       // every private page ever mapped, in allocation order, for Release
	next  Addr           // bump allocator for Alloc
	stats Stats

	// The page touched last: DMAs and task-buffer accesses walk a page
	// at a time, so most lookups skip the map. A write may use it only
	// when it holds a private page.
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
	return r
}

// page returns the page holding addr: for a read whatever is mapped there,
// for a write a private page.
//
//simlint:hotpath once per page-sized piece of every functional access
func (m *Memory) page(addr Addr, write bool) []byte {
	base := addr &^ (PageSize - 1)
	if m.last != nil && m.lastBase == base && (m.lastPrivate || !write) {
		return m.last
	}
	e := m.fault(base, write)
	m.lastBase, m.last, m.lastPrivate = base, e.data, e.blob == nil
	return e.data
}

// fault looks base up past the memo: an untouched address gets a zeroed
// private page, and a write to an aliased page replaces it by a private
// copy (the copy-on-write; the Blob and every other memory mapping it
// keep the original).
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

// ReadAt copies len(buf) bytes at addr into buf (a "zero-cost" functional
// access in DSim terms, §5).
func (m *Memory) ReadAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr, false)
		off := int(addr & (PageSize - 1))
		n := copy(buf, p[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// WriteAt copies buf to addr.
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
// place.
//
//simlint:hotpath once per page of every span a device's plan key covers
func (m *Memory) Sum(addr Addr, n int) uint64 {
	var h uint64
	for base, end := addr&^(PageSize-1), addr+Addr(n); base < end; base += PageSize {
		e, ok := m.pages[base]
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

func (r *Region) String() string {
	return fmt.Sprintf("%s[%#x+%#x]", r.Name, uint64(r.Base), r.Size)
}
