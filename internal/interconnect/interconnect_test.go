package interconnect

import (
	"testing"

	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

func TestRoundTripLatency(t *testing.T) {
	f := New(Config{
		Name: "t", LinkLatency: 100 * vclock.Nanosecond,
		MaxOutstandingR: 16, MaxOutstandingW: 16,
	}, memsys.Fixed{Latency: 50 * vclock.Nanosecond})
	// 100 (there) + 50 (serve) + 100 (back) = 250ns. No bandwidth term.
	d := f.Access(0, mem.Read, 0x1000, 64)
	if want := vclock.Time(250 * vclock.Nanosecond); d != want {
		t.Fatalf("round trip = %v, want %v", vclock.Duration(d), vclock.Duration(want))
	}
}

func TestSegmentation(t *testing.T) {
	f := New(Config{
		Name: "t", LinkLatency: 10 * vclock.Nanosecond, MaxPayload: 512,
		BytesPerNs: 512, // 1ns per TLP wire time
	}, memsys.Fixed{})
	// 2KB = 4 TLPs, pipelined on the link: wire times serialize
	// (4 x 1ns), each pays link latency both ways.
	d := f.Access(0, mem.Read, 0, 2048)
	// Last TLP starts its wire at 3ns, arrives 3+1+10=14, returns 24.
	if want := vclock.Time(24 * vclock.Nanosecond); d != want {
		t.Fatalf("segmented DMA = %v, want %v", vclock.Duration(d), vclock.Duration(want))
	}
}

func TestOutstandingLimitThrottles(t *testing.T) {
	// Target is slow; only 2 reads may be in flight.
	f := New(Config{
		Name: "t", LinkLatency: 0, MaxOutstandingR: 2,
	}, memsys.Fixed{Latency: 100 * vclock.Nanosecond})
	d1 := f.Access(0, mem.Read, 0, 8)
	d2 := f.Access(0, mem.Read, 64, 8)
	d3 := f.Access(0, mem.Read, 128, 8)
	if d1 != vclock.Time(100*vclock.Nanosecond) || d2 != d1 {
		t.Fatalf("first two not parallel: %v %v", d1, d2)
	}
	if d3 != vclock.Time(200*vclock.Nanosecond) {
		t.Fatalf("third = %v, want delayed to 200ns", vclock.Duration(d3))
	}
	if f.StallTime != 100*vclock.Nanosecond {
		t.Fatalf("StallTime = %v, want 100ns", f.StallTime)
	}
}

func TestReadsAndWritesIndependentWindows(t *testing.T) {
	f := New(Config{
		Name: "t", LinkLatency: 0, MaxOutstandingR: 1, MaxOutstandingW: 1,
	}, memsys.Fixed{Latency: 100 * vclock.Nanosecond})
	f.Access(0, mem.Read, 0, 8)
	// A write at t=0 is not blocked by the outstanding read.
	d := f.Access(0, mem.Write, 64, 8)
	if d != vclock.Time(100*vclock.Nanosecond) {
		t.Fatalf("write blocked by read window: %v", vclock.Duration(d))
	}
}

func TestUnlimitedWindows(t *testing.T) {
	f := New(Config{Name: "t", LinkLatency: 1 * vclock.Nanosecond}, memsys.Fixed{})
	for i := 0; i < 100; i++ {
		f.Access(0, mem.Read, mem.Addr(i*64), 8)
	}
	if f.StallTime != 0 {
		t.Fatal("unlimited fabric stalled")
	}
	if f.Reads != 100 {
		t.Fatalf("Reads = %d", f.Reads)
	}
}

func TestWithLatencySweep(t *testing.T) {
	base := PCIe400
	fast := base.WithLatency(100 * vclock.Nanosecond)
	if base.LinkLatency != 400*vclock.Nanosecond {
		t.Fatal("WithLatency mutated the receiver")
	}
	if fast.LinkLatency != 100*vclock.Nanosecond {
		t.Fatal("WithLatency did not apply")
	}
	slow := New(base, memsys.Fixed{})
	quick := New(fast, memsys.Fixed{})
	ds := slow.Access(0, mem.Read, 0, 64)
	dq := quick.Access(0, mem.Read, 0, 64)
	if ds <= dq {
		t.Fatalf("lower latency not faster: %v vs %v", ds, dq)
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := New(OnChip4, memsys.Fixed{})
	f.Access(0, mem.Read, 0, 100)
	f.Access(0, mem.Write, 0, 200)
	if f.Reads != 1 || f.Writes != 1 || f.Bytes != 300 {
		t.Fatalf("stats = %d/%d/%d", f.Reads, f.Writes, f.Bytes)
	}
}

func TestIOTLBHitAndMiss(t *testing.T) {
	f := New(Config{Name: "t", LinkLatency: 10 * vclock.Nanosecond},
		memsys.Fixed{Latency: 50 * vclock.Nanosecond})
	f.EnableIOTLB(IOTLBConfig{Entries: 4})

	// Cold access: 4-level walk (4 x 50ns serialized) before the DMA.
	cold := f.Access(0, mem.Read, 0x1000, 8)
	// Warm access to the same page: only the 2ns hit latency.
	base := cold
	warm := f.Access(base, mem.Read, 0x1008, 8)

	coldLat := cold.Sub(0)
	warmLat := warm.Sub(base)
	if coldLat <= warmLat {
		t.Fatalf("cold %v not slower than warm %v", coldLat, warmLat)
	}
	// 4 walk reads at 50ns each = 200ns extra.
	if coldLat-warmLat < 150*vclock.Nanosecond {
		t.Fatalf("walk penalty too small: %v", coldLat-warmLat)
	}
	hits, misses := f.tlb.Hits, f.tlb.Misses
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestIOTLBEviction(t *testing.T) {
	f := New(Config{Name: "t"}, memsys.Fixed{Latency: 10 * vclock.Nanosecond})
	f.EnableIOTLB(IOTLBConfig{Entries: 2})
	// Touch three pages; the first is evicted (LRU).
	f.Access(0, mem.Read, 0x1000, 8)
	f.Access(0, mem.Read, 0x2000, 8)
	f.Access(0, mem.Read, 0x3000, 8)
	f.Access(0, mem.Read, 0x1000, 8) // must miss again
	misses := f.tlb.Misses
	if misses != 4 {
		t.Fatalf("misses = %d, want 4 (LRU eviction)", misses)
	}
}

func TestIOTLBSpanningPages(t *testing.T) {
	f := New(Config{Name: "t"}, memsys.Fixed{Latency: 10 * vclock.Nanosecond})
	f.EnableIOTLB(IOTLBConfig{Entries: 16})
	// 8KB DMA covers two pages: two translations.
	f.Access(0, mem.Read, 0x0, 8192)
	hits, misses := f.tlb.Hits, f.tlb.Misses
	if hits+misses != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2 cold pages", hits, misses)
	}
}

func TestNoIOTLBByDefault(t *testing.T) {
	f := New(Config{Name: "t"}, memsys.Fixed{})
	if f.tlb != nil {
		t.Fatal("a TLB without EnableIOTLB")
	}
}
