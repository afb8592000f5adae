package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// write64 and read64 store and load one little-endian word.
func write64(m *Memory, a Addr, v uint64) {
	m.WriteAt(a, binary.LittleEndian.AppendUint64(nil, v))
}

func read64(m *Memory, a Addr) uint64 {
	var b [8]byte
	m.ReadAt(a, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(0x1000)
	data := []byte("hello, accelerator")
	m.WriteAt(0x2000, data)
	got := make([]byte, len(data))
	m.ReadAt(0x2000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(0)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := Addr(PageSize - 100) // straddles page boundaries
	m.WriteAt(addr, data)
	got := make([]byte, len(data))
	m.ReadAt(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip failed")
	}
}

func TestZeroFill(t *testing.T) {
	m := New(0)
	got := make([]byte, 64)
	for i := range got {
		got[i] = 0xff
	}
	m.ReadAt(0x99999, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
}

func TestAllocNonOverlapping(t *testing.T) {
	m := New(0x1000)
	a := m.Alloc("a", 100)
	b := m.Alloc("b", PageSize+1)
	if a.Size != PageSize {
		t.Errorf("a.Size = %d, want page-rounded", a.Size)
	}
	if b.Size != 2*PageSize {
		t.Errorf("b.Size = %d, want 2 pages", b.Size)
	}
	if a.Base+Addr(a.Size) > b.Base {
		t.Fatal("regions overlap")
	}
}

// Words written across a page boundary read back unchanged, and the
// word after them does not disturb them.
func TestFixedWidthRoundTrip(t *testing.T) {
	f := func(addr uint32, v, w uint64) bool {
		m := New(0)
		a := Addr(addr)&^(PageSize-1) + PageSize - 4 // half on each page
		write64(m, a, v)
		if read64(m, a) != v {
			return false
		}
		write64(m, a+8, w)
		return read64(m, a) == v && read64(m, a+8) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	New(0).Alloc("zero", 0)
}

// drainFreeList empties the package's page free list, so a test sees
// only the pages it released itself.
func drainFreeList() {
	freePages.Lock()
	freePages.list = nil
	freePages.Unlock()
}

func freeListLen() int {
	freePages.Lock()
	defer freePages.Unlock()
	return len(freePages.list)
}

// A released memory's pages come back through New zeroed: no byte of a
// previous life is readable, wherever it was written.
func TestReleaseRecyclesZeroedPages(t *testing.T) {
	drainFreeList()
	first := New(0)
	ones := bytes.Repeat([]byte{0xff}, 3*PageSize)
	first.WriteAt(0x10_0000, ones)                            // three whole pages
	first.WriteAt(0x20_0000+PageSize-1, []byte{0xaa})         // the last byte of a page
	first.WriteAt(0x30_0000+PageSize-3, []byte("straddling")) // across a page boundary
	const touched = 3 + 1 + 2
	first.Release()
	if got := freeListLen(); got != touched {
		t.Fatalf("free list holds %d pages after Release, want %d", got, touched)
	}
	buf := make([]byte, 3*PageSize)
	second := New(0)
	for _, base := range []Addr{0x10_0000, 0x20_0000, 0x30_0000, 0x77_0000} {
		second.ReadAt(base, buf)
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("recycled pages at %#x do not read as zeros", uint64(base))
		}
	}
	if got := freeListLen(); got != 0 {
		t.Fatalf("free list holds %d pages: New did not draw on it", got)
	}
}

func TestReleaseTwiceIsNoOp(t *testing.T) {
	drainFreeList()
	m := New(0)
	write64(m, 0x1000, 1)
	write64(m, 0x9000, 2)
	m.Release()
	m.Release()
	if got := freeListLen(); got != 2 {
		t.Fatalf("free list holds %d pages after a double Release, want 2 (no page twice)", got)
	}
	if got := read64(m, 0x9000); got != 0 {
		t.Fatalf("a released memory reads %#x where it once wrote, want 0", got)
	}
	a, b := New(0), New(0)
	write64(a, 0, 0x1111)
	write64(b, 0, 0x2222)
	if read64(a, 0) != 0x1111 || read64(b, 0) != 0x2222 {
		t.Fatal("two memories share a recycled page")
	}
}

func TestFreeListBounded(t *testing.T) {
	drainFreeList()
	defer drainFreeList()
	// Ten times the bound, released in rounds that each hold more pages
	// than the list may keep.
	const perRound = maxFreePages + maxFreePages/4
	for released := 0; released < 10*maxFreePages; released += perRound {
		m := New(0)
		for p := 0; p < perRound; p++ {
			m.WriteAt(Addr(p)*PageSize, []byte{1})
		}
		m.Release()
		if got := freeListLen(); got != maxFreePages {
			t.Fatalf("free list holds %d pages after a %d-page Release, want the bound %d", got, perRound, maxFreePages)
		}
	}
}

// BenchmarkPageTouch is the functional side of a DMA stream: 4 KB copies
// walking 8 MB of a fresh memory (every page mapped once), then the
// memory released, as one system of a sweep does.
func BenchmarkPageTouch(b *testing.B) {
	const span = 8 << 20
	buf := make([]byte, PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(0)
		for a := Addr(0); a < span; a += PageSize {
			m.WriteAt(a+64, buf) // unaligned: two pages per copy, the second one new
			m.ReadAt(a+64, buf)
		}
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(span/PageSize), "ns/page")
}
