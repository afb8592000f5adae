package checkpoint

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(123456789)
	e.F64(3.14159)
	e.Bytes8([]byte{1, 2, 3})
	e.String("hello")
	e.Bytes8(nil)

	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool mismatch")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 123456789 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Bytes8(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes8 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes8(); len(got) != 0 {
		t.Errorf("nil Bytes8 = %v", got)
	}
	if !d.Done() {
		t.Errorf("Done = false: err=%v", d.Err())
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func() []byte {
		e := NewEncoder()
		e.String("section")
		for i := 0; i < 100; i++ {
			e.I64(int64(i * 31))
			e.F64(float64(i) / 7)
		}
		return e.Bytes()
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical encodes differ")
	}
	if Hash(a) != Hash(b) {
		t.Fatalf("identical blobs hash differently")
	}
}

func TestDecoderCorrupt(t *testing.T) {
	if _, err := NewDecoder([]byte("BOGUS!")); err == nil {
		t.Errorf("bad magic accepted")
	}
	if _, err := NewDecoder(nil); err == nil {
		t.Errorf("empty blob accepted")
	}
	e := NewEncoder()
	e.U64(1)
	blob := e.Bytes()
	// Wrong version.
	bad := append([]byte(nil), blob...)
	bad[len(Magic)] = 99
	if _, err := NewDecoder(bad); err == nil {
		t.Errorf("bad version accepted")
	}
	// Truncation is a sticky error, not a panic.
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	_ = d.U64()
	_ = d.U64() // past the end
	if d.Err() == nil {
		t.Errorf("truncated read did not set Err")
	}
	_ = d.U32() // reads after error stay safe
	if d.Done() {
		t.Errorf("Done = true on failed decode")
	}
	// Absurd length prefix must not allocate or panic.
	e2 := NewEncoder()
	e2.U32(0xffffffff)
	d2, err := NewDecoder(e2.Bytes())
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d2.Bytes8(); got != nil {
		t.Errorf("oversized Bytes8 returned data")
	}
	if d2.Err() == nil {
		t.Errorf("oversized Bytes8 did not set Err")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(100)
	blob := func(n int) []byte { return make([]byte, n) }
	s.Put("a", blob(40))
	s.Put("b", blob(40))
	s.Put("c", blob(40)) // evicts a
	if _, ok := s.Get("a"); ok {
		t.Errorf("a survived eviction")
	}
	if _, ok := s.Get("b"); !ok {
		t.Errorf("b evicted early")
	}
	// b is now most recently used; inserting d should evict c.
	s.Put("d", blob(40))
	if _, ok := s.Get("c"); ok {
		t.Errorf("c survived eviction despite being LRU")
	}
	if _, ok := s.Get("b"); !ok {
		t.Errorf("b evicted despite recent use")
	}
	st := s.Stats()
	if st.Entries != 2 || st.UsedBytes != 80 {
		t.Errorf("stats = %+v, want 2 entries / 80 bytes", st)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	// A blob over the whole budget is not cached.
	s.Put("huge", blob(200))
	if _, ok := s.Get("huge"); ok {
		t.Errorf("over-budget blob cached")
	}
}

func TestStoreNegativeEntry(t *testing.T) {
	s := NewStore(0)
	s.Put("done", nil)
	blob, ok := s.Get("done")
	if !ok {
		t.Fatalf("negative entry not found")
	}
	if blob != nil {
		t.Fatalf("negative entry has data")
	}
}

func TestStoreUpdateExisting(t *testing.T) {
	s := NewStore(100)
	s.Put("k", make([]byte, 60))
	s.Put("k", make([]byte, 30))
	if st := s.Stats(); st.Entries != 1 || st.UsedBytes != 30 {
		t.Errorf("stats after update = %+v", st)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	s := NewStore(0)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		calls.Add(1)
		close(started)
		<-release
		return []byte("blob"), nil
	}

	var wg sync.WaitGroup
	var mineCount atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, mine, err := s.GetOrCompute("k", compute)
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			if string(blob) != "blob" {
				t.Errorf("blob = %q", blob)
			}
			if mine {
				mineCount.Add(1)
			}
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if mineCount.Load() != 1 {
		t.Errorf("mine reported by %d callers, want 1", mineCount.Load())
	}
	// Subsequent calls hit the cache.
	if _, mine, _ := s.GetOrCompute("k", compute); mine {
		t.Errorf("cached key recomputed")
	}
}

func TestGetOrComputeErrorRetries(t *testing.T) {
	s := NewStore(0)
	var calls atomic.Int64
	_, _, err := s.GetOrCompute("k", func() ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatalf("error swallowed")
	}
	// Failure is not cached: the next caller recomputes.
	blob, mine, err := s.GetOrCompute("k", func() ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || !mine || string(blob) != "ok" {
		t.Fatalf("retry: blob=%q mine=%v err=%v", blob, mine, err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
}

func TestGetOrComputeConcurrentError(t *testing.T) {
	// Waiters behind a failing producer must not hang: one gets promoted
	// to retry.
	s := NewStore(0)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, _, err := s.GetOrCompute("k", func() ([]byte, error) {
				if calls.Add(1) == 1 {
					return nil, fmt.Errorf("first fails")
				}
				return []byte("ok"), nil
			})
			if err == nil && string(blob) != "ok" {
				t.Errorf("blob = %q", blob)
			}
		}()
	}
	wg.Wait()
}

// TestStoreConcurrentGetPutRace hammers the LRU from many goroutines;
// run under -race this pins down the locking discipline around
// eviction and single-flight publication.
func TestStoreConcurrentGetPutRace(t *testing.T) {
	s := NewStore(1 << 10) // small enough to force constant eviction
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%32)
				switch i % 3 {
				case 0:
					s.Put(key, bytes.Repeat([]byte{byte(i)}, 64))
				case 1:
					if blob, ok := s.Get(key); ok && len(blob) != 0 && len(blob) != 1 && len(blob) != 64 {
						t.Errorf("blob len %d", len(blob))
						return
					}
				default:
					_, _, _ = s.GetOrCompute(key, func() ([]byte, error) {
						return []byte{byte(i)}, nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.UsedBytes > 1<<10 {
		t.Fatalf("budget exceeded after churn: %d bytes", st.UsedBytes)
	}
}
