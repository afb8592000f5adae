package mem

import (
	"bytes"
	"sync"
	"testing"

	"nexsim/internal/xrand"
)

// refMemory is the reference the page-mapped Memory is checked against:
// one map entry per byte ever written, no pages, no aliasing, no memo.
type refMemory map[Addr]byte

func (r refMemory) write(addr Addr, p []byte) {
	for i, c := range p {
		r[addr+Addr(i)] = c
	}
}

func (r refMemory) read(addr Addr, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r[addr+Addr(i)]
	}
	return out
}

// mapImage is Map as the reference sees it: the image, then zeros up to
// the end of its last page.
func (r refMemory) mapImage(addr Addr, img []byte) {
	r.write(addr, img)
	for a := addr + Addr(len(img)); a&(PageSize-1) != 0; a++ {
		delete(r, a)
	}
}

// pages returns the contents of the whole pages overlapping [addr, addr+n).
func (r refMemory) pages(addr Addr, n int) string {
	lo, hi := addr&^(PageSize-1), (addr+Addr(n)+PageSize-1)&^(PageSize-1)
	return string(r.read(lo, int(hi-lo)))
}

// refArena is the address range the op programs below work in: small
// enough that writes, maps and sums keep landing on each other's pages.
const refArena = 12 * PageSize

// sumBook checks Sum against the reference without knowing the hash:
// across everything one run observes, two spans have equal sums exactly
// when the reference says their pages hold equal contents.
type sumBook struct {
	bySum     map[uint64]string
	byContent map[string]uint64
}

func (b *sumBook) check(t *testing.T, m *Memory, ref refMemory, addr Addr, n int) {
	t.Helper()
	sum, content := m.Sum(addr, n), ref.pages(addr, n)
	if n <= 0 {
		return
	}
	if prev, seen := b.byContent[content]; seen && prev != sum {
		t.Fatalf("Sum(%#x, %d) = %#x, but equal page contents summed to %#x before", uint64(addr), n, sum, prev)
	}
	if prev, seen := b.bySum[sum]; seen && prev != content {
		t.Fatalf("Sum(%#x, %d) = %#x, the sum of different page contents seen before", uint64(addr), n, sum)
	}
	b.bySum[sum], b.byContent[content] = content, sum
}

// runOps interprets ops as a program over a Memory and a refMemory side
// by side and fails on the first observable difference. Each op is five
// bytes: kind, two address bytes, two length/argument bytes.
func runOps(t *testing.T, ops []byte) {
	t.Helper()
	m, ref := New(0), refMemory{}
	book := &sumBook{bySum: map[uint64]string{}, byContent: map[string]uint64{}}
	type source struct {
		handed []byte // the slice NewBlob was given; scribbled on afterwards
		blob   *Blob
		img    []byte // what it held when NewBlob saw it
	}
	var blobs []source
	fill := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i*7) | 1 // never zero: a lost byte shows
		}
		return p
	}
	for len(ops) >= 5 {
		kind, a, n := ops[0], int(ops[1])|int(ops[2])<<8, int(ops[3])|int(ops[4])<<8
		ops = ops[5:]
		addr := Addr(a % refArena)
		switch kind % 8 {
		case 0: // write anywhere, up to two and a half pages
			p := fill(n%(5*PageSize/2), byte(a))
			book.check(t, m, ref, addr, len(p))
			m.WriteAt(addr, p)
			ref.write(addr, p)
			book.check(t, m, ref, addr, len(p))
		case 1: // write a page's first byte, its last byte, or two bytes straddling into the next
			page := addr &^ (PageSize - 1)
			at, p := page, []byte{byte(n) | 1}
			switch n % 3 {
			case 1:
				at = page + PageSize - 1
			case 2:
				at, p = page+PageSize-1, []byte{byte(n) | 1, byte(a) | 1}
			}
			book.check(t, m, ref, page, 2*PageSize)
			m.WriteAt(at, p)
			ref.write(at, p)
			book.check(t, m, ref, page, 2*PageSize)
		case 2: // read
			n %= 3 * PageSize
			got := make([]byte, n)
			m.ReadAt(addr, got)
			if want := ref.read(addr, n); !bytes.Equal(got, want) {
				t.Fatalf("ReadAt(%#x, %d) differs from the reference", uint64(addr), n)
			}
		case 3: // a new blob, zero to three pages and a bit, mapped page-aligned
			img := fill(n%(3*PageSize+100), byte(n))
			src := source{handed: bytes.Clone(img), img: img}
			src.blob = NewBlob(src.handed)
			blobs = append(blobs, src)
			if src.blob.Len() != len(img) {
				t.Fatalf("Blob.Len() = %d, want %d", src.blob.Len(), len(img))
			}
			m.Map(addr&^(PageSize-1), src.blob)
			ref.mapImage(addr&^(PageSize-1), img)
		case 4: // map an earlier blob again, over whatever is there now
			if len(blobs) > 0 {
				src := blobs[n%len(blobs)]
				m.Map(addr&^(PageSize-1), src.blob)
				ref.mapImage(addr&^(PageSize-1), src.img)
			}
		case 5: // sum
			book.check(t, m, ref, addr, n%(4*PageSize))
		case 6: // scribble over the slice a blob was made from: the blob has its own copy
			if len(blobs) > 0 {
				for i := range blobs[n%len(blobs)].handed {
					blobs[n%len(blobs)].handed[i] ^= 0xff
				}
			}
		case 7: // release; a new memory reads zeros wherever the old one was written
			m.Release()
			m, ref = New(0), refMemory{}
		}
	}
	got := make([]byte, refArena+PageSize)
	m.ReadAt(0, got)
	if !bytes.Equal(got, ref.read(0, len(got))) {
		t.Fatal("final contents differ from the reference")
	}
	for p := Addr(0); p < refArena; p += PageSize {
		book.check(t, m, ref, p, PageSize)
	}
}

func TestMemoryMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 5*(20+rng.Intn(150)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runOps(t, ops)
	}
}

// FuzzMemoryMatchesReference: no op program makes the page-mapped memory
// and the byte map disagree on a read or on which spans sum alike.
func FuzzMemoryMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 5*2048 {
			ops = ops[:5*2048] // keeps one exec in the low milliseconds
		}
		runOps(t, ops)
	})
}

// Two memories map one blob; one writes into it. The writer sees its
// write, the other memory and the blob (mapped afresh into a third) do
// not, and only the written page was copied.
func TestCopyOnWriteIsPrivate(t *testing.T) {
	img := bytes.Repeat([]byte{0x5a}, 3*PageSize)
	b := NewBlob(img)
	w, r := New(0), New(0)
	w.Map(0x10000, b)
	r.Map(0x10000, b)
	if w.Sum(0x10000, len(img)) != r.Sum(0x10000, len(img)) {
		t.Fatal("two mappings of one blob sum differently")
	}
	w.WriteAt(0x10000+PageSize+5, []byte{1, 2, 3})
	got := make([]byte, len(img))
	w.ReadAt(0x10000, got)
	want := bytes.Clone(img)
	copy(want[PageSize+5:], []byte{1, 2, 3})
	if !bytes.Equal(got, want) {
		t.Fatal("the writer does not read its own write over the blob's bytes")
	}
	third := New(0)
	third.Map(0, b)
	for _, c := range []struct {
		m    *Memory
		base Addr
	}{{r, 0x10000}, {third, 0}} {
		c.m.ReadAt(c.base, got)
		if !bytes.Equal(got, img) {
			t.Fatal("a write through one mapping reached the blob or another mapping of it")
		}
	}
	if w.Sum(0x10000, len(img)) == r.Sum(0x10000, len(img)) {
		t.Fatal("the written mapping still sums like the blob")
	}
	if w.Sum(0x10000, PageSize) != r.Sum(0x10000, PageSize) || w.Sum(0x10000+2*PageSize, PageSize) != r.Sum(0x10000+2*PageSize, PageSize) {
		t.Fatal("the pages around the written one no longer sum like the blob's")
	}
	if st := w.Stats(); st != (Stats{Private: 1, Aliased: 3, Unshared: 1}) {
		t.Fatalf("writer stats %+v, want one private page, three aliased, one unshared", st)
	}
	if st := r.Stats(); st != (Stats{Aliased: 3}) {
		t.Fatalf("reader stats %+v, want three aliased pages and nothing else", st)
	}
}

// A private page, an aliased page and an untouched page with the same
// bytes are the same page to Sum.
func TestSumIsContentNotProvenance(t *testing.T) {
	img := make([]byte, 2*PageSize) // second page all zeros
	for i := 0; i < PageSize; i++ {
		img[i] = byte(i * 13)
	}
	mapped, written := New(0), New(0)
	mapped.Map(0x4000, NewBlob(img))
	written.WriteAt(0x4000, img[:PageSize]) // its second page stays untouched
	if a, b := mapped.Sum(0x4000, len(img)), written.Sum(0x4000, len(img)); a != b {
		t.Fatalf("mapped pages sum to %#x, equal written and untouched pages to %#x", a, b)
	}
	if a, b := mapped.Sum(0x4000+100, 8), mapped.Sum(0x4000, PageSize); a != b {
		t.Fatalf("Sum of a span inside one page is %#x, of the page %#x: not whole-page", a, b)
	}
}

func TestMapUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map at an unaligned address did not panic")
		}
	}()
	New(0).Map(0x1008, NewBlob([]byte{1}))
}

// Released aliases are dropped, not pooled: a blob's pages must never
// come back from the free list as some memory's zeroed private page.
func TestReleaseDoesNotPoolBlobPages(t *testing.T) {
	drainFreeList()
	defer drainFreeList()
	img := bytes.Repeat([]byte{0xee}, 4*PageSize)
	b := NewBlob(img)
	m := New(0)
	m.Map(0, b)
	m.WriteAt(PageSize, []byte{1}) // one copy-on-write page
	m.Release()
	if got := freeListLen(); got != 1 {
		t.Fatalf("free list holds %d pages after releasing 4 aliased pages and 1 private copy, want 1", got)
	}
	next := New(0)
	next.WriteAt(0, []byte{0}) // takes (and zeroes) whatever the free list holds
	again := New(0)
	again.Map(0, b)
	got := make([]byte, len(img))
	again.ReadAt(0, got)
	if !bytes.Equal(got, img) {
		t.Fatal("the blob changed after a memory that mapped it was released")
	}
}

// Map, Sum and copy-on-write under SetConcurrent, from several goroutines
// on disjoint pages of one memory sharing one blob (run with -race).
func TestConcurrentMapSumCopyOnWrite(t *testing.T) {
	const workers, span = 4, 8 * PageSize
	img := make([]byte, span)
	for i := range img {
		img[i] = byte(i*31) | 1
	}
	b := NewBlob(img)
	want := New(0)
	want.Map(0, b)
	wantSum := want.Sum(0, span)

	m := New(0)
	m.SetConcurrent()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := Addr(g) * 4 * span
			got := make([]byte, span)
			for i := 0; i < 50; i++ {
				m.Map(base, b)
				if s := m.Sum(base, span); s != wantSum {
					t.Errorf("goroutine %d: a fresh mapping sums to %#x, want %#x", g, s, wantSum)
					return
				}
				at := base + Addr(i%8)*PageSize + Addr(i)
				m.WriteAt(at, []byte{0})
				if m.Sum(base, span) == wantSum {
					t.Errorf("goroutine %d: the sum did not move with a write", g)
					return
				}
				m.ReadAt(base, got)
				if off := int(at - base); got[off] != 0 || !bytes.Equal(got[:off], img[:off]) || !bytes.Equal(got[off+1:], img[off+1:]) {
					t.Errorf("goroutine %d: contents after copy-on-write are not the blob's plus the write", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := make([]byte, span)
	want.ReadAt(0, got)
	if !bytes.Equal(got, img) {
		t.Fatal("concurrent writers changed the blob")
	}
	if st := m.Stats(); st.Aliased != workers*50*8 || st.Unshared != workers*50 {
		t.Fatalf("stats %+v, want %d pages aliased and %d unshared", st, workers*50*8, workers*50)
	}
}

// A multiply-only FNV step carries a difference in a word's top byte
// nowhere but into the hash's top byte, where the next word's top byte
// can cancel it: two pages differing in their last bytes then summed like
// two others. Mix folds the high half down after every step.
func TestSumTopByteDifferencesDoNotCancel(t *testing.T) {
	m := New(0)
	seen := map[uint64][2]int{}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b += 17 {
			m.WriteAt(PageSize-1, []byte{byte(a)})
			m.WriteAt(2*PageSize-1, []byte{byte(b)})
			s := m.Sum(0, 2*PageSize)
			if prev, dup := seen[s]; dup {
				t.Fatalf("last bytes (%d, %d) and (%d, %d) give one sum", prev[0], prev[1], a, b)
			}
			seen[s] = [2]int{a, b}
		}
	}
}
