package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

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

func TestRegionAt(t *testing.T) {
	m := New(0x1000)
	a := m.Alloc("a", PageSize)
	b := m.Alloc("b", PageSize)
	if got := m.RegionAt(a.Base + 10); got != a {
		t.Errorf("RegionAt in a = %v", got)
	}
	if got := m.RegionAt(b.Base); got != b {
		t.Errorf("RegionAt at b.Base = %v", got)
	}
	if got := m.RegionAt(b.Base + Addr(b.Size)); got != nil {
		t.Errorf("RegionAt past end = %v, want nil", got)
	}
	if got := m.RegionAt(0x10); got != nil {
		t.Errorf("RegionAt before all = %v, want nil", got)
	}
}

func TestProtectionFires(t *testing.T) {
	m := New(0x1000)
	r := m.Alloc("mmio", PageSize)
	var faults []AccessKind
	m.Protect(r, func(kind AccessKind, addr Addr, size int) {
		faults = append(faults, kind)
		if !r.Contains(addr, size) {
			t.Errorf("fault outside region: %#x+%d", uint64(addr), size)
		}
	})
	m.WriteU32Faulting(r.Base, 7)
	_ = m.ReadU32Faulting(r.Base)
	if len(faults) != 2 || faults[0] != Write || faults[1] != Read {
		t.Fatalf("faults = %v", faults)
	}
	// Non-faulting ("zero-cost") access must not trap.
	m.WriteU32(r.Base, 9)
	if len(faults) != 2 {
		t.Fatal("zero-cost access trapped")
	}
	// Access outside the region must not trap.
	m.WriteU32Faulting(r.Base+Addr(r.Size)+64, 1)
	if len(faults) != 2 {
		t.Fatal("unprotected access trapped")
	}
}

func TestUnprotect(t *testing.T) {
	m := New(0)
	r := m.Alloc("buf", PageSize)
	fired := 0
	m.Protect(r, func(AccessKind, Addr, int) { fired++ })
	m.WriteU64Faulting(r.Base, 1)
	m.Unprotect(r)
	m.WriteU64Faulting(r.Base, 2)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestFaultHandlerRunsBeforeAccess(t *testing.T) {
	// The paper's runtime resolves the trap (e.g. the accelerator writes a
	// completion flag) and then the faulting read completes and must see
	// the resolved data.
	m := New(0)
	r := m.Alloc("status", PageSize)
	m.Protect(r, func(kind AccessKind, addr Addr, size int) {
		if kind == Read {
			m.WriteU32(r.Base, 0xD0E) // accelerator catch-up writes status
		}
	})
	if got := m.ReadU32Faulting(r.Base); got != 0xD0E {
		t.Fatalf("read %#x, want value written during fault resolution", got)
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	f := func(addr uint32, v64 uint64, v32 uint32) bool {
		m := New(0)
		a := Addr(addr)
		m.WriteU64(a, v64)
		if m.ReadU64(a) != v64 {
			return false
		}
		m.WriteU32(a+16, v32)
		return m.ReadU32(a+16) == v32
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

// The bump allocator appends regions in ascending order, which is what
// RegionAt's binary search relies on now that Alloc no longer sorts.
func TestRegionAtManyRegions(t *testing.T) {
	m := New(0x4000)
	var regions []*Region
	for i, pages := range []uint64{1, 3, 1, 7, 2, 1} {
		regions = append(regions, m.Alloc(string(rune('a'+i)), pages*PageSize))
	}
	for _, r := range regions { // first, middle and last alike
		for _, a := range []Addr{r.Base, r.Base + Addr(r.Size/2), r.Base + Addr(r.Size) - 1} {
			if got := m.RegionAt(a); got != r {
				t.Errorf("RegionAt(%#x) = %v, want %v", uint64(a), got, r)
			}
		}
	}
	last := regions[len(regions)-1]
	for _, a := range []Addr{0, 0x3fff, last.Base + Addr(last.Size), 1 << 40} {
		if got := m.RegionAt(a); got != nil {
			t.Errorf("RegionAt(%#x) = %v, want nil outside every region", uint64(a), got)
		}
	}
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
	m.WriteU64(0x1000, 1)
	m.WriteU64(0x9000, 2)
	m.Release()
	m.Release()
	if got := freeListLen(); got != 2 {
		t.Fatalf("free list holds %d pages after a double Release, want 2 (no page twice)", got)
	}
	if got := m.ReadU64(0x9000); got != 0 {
		t.Fatalf("a released memory reads %#x where it once wrote, want 0", got)
	}
	a, b := New(0), New(0)
	a.WriteU64(0, 0x1111)
	b.WriteU64(0, 0x2222)
	if a.ReadU64(0) != 0x1111 || b.ReadU64(0) != 0x2222 {
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
