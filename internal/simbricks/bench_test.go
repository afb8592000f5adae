package simbricks

import (
	"bytes"
	"testing"

	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// benchHost is a minimal endpoint so the benchmarks measure only the
// channel's per-message encode/decode work.
type benchHost struct{ buf [64 << 10]byte }

func (h *benchHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	return at.Add(100)
}
func (h *benchHost) ZeroCostRead(addr mem.Addr, p []byte)    { copy(p, h.buf[:]) }
func (h *benchHost) ZeroCostWrite(addr mem.Addr, p []byte)   { copy(h.buf[:], p) }
func (h *benchHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return 0 }
func (h *benchHost) RaiseIRQ(at vclock.Time, vector int)     {}

// BenchmarkChannelRegAccess measures the 2-message register round trip —
// the most frequent channel interaction (doorbells and status polls).
func BenchmarkChannelRegAccess(b *testing.B) {
	ch := NewChannel(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.roundTrip(msgRegWrite, vclock.Time(i), 0x40, uint64(i), nil)
		ch.roundTrip(msgRegReadResp, vclock.Time(i), 0, uint64(i), nil)
	}
}

// BenchmarkChannelDMA measures the DMA request + completion pair.
func BenchmarkChannelDMA(b *testing.B) {
	ch := NewChannel(0)
	h := &benchHost{}
	a := &hostAdapter{h: h, ch: ch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DMA(vclock.Time(i), mem.Read, 0x1000, 4096)
	}
}

// BenchmarkChannelZeroCostRead measures the unsynchronized data side
// channel moving a 4KB payload (chunked through the ring).
func BenchmarkChannelZeroCostRead(b *testing.B) {
	ch := NewChannel(0)
	h := &benchHost{}
	a := &hostAdapter{h: h, ch: ch}
	p := make([]byte, 4096)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ZeroCostRead(0x2000, p)
	}
}

// BenchmarkChannelZeroCostWrite measures the write side at 32KB, the
// chunking threshold.
func BenchmarkChannelZeroCostWrite(b *testing.B) {
	ch := NewChannel(0)
	h := &benchHost{}
	a := &hostAdapter{h: h, ch: ch}
	p := make([]byte, 32<<10)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ZeroCostWrite(0x3000, p)
	}
}

// TestChannelSteadyStateAllocFree pins the property the scratch-buffer
// reuse exists for: after warm-up, a message round trip performs zero
// heap allocations.
func TestChannelSteadyStateAllocFree(t *testing.T) {
	ch := NewChannel(0)
	h := &benchHost{}
	a := &hostAdapter{h: h, ch: ch}
	p := make([]byte, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		ch.roundTrip(msgRegWrite, 1, 0x40, 7, nil)
		a.DMA(2, mem.Read, 0x1000, 4096)
		a.ZeroCostRead(0x2000, p)
		a.ZeroCostWrite(0x3000, p)
	}); avg != 0 {
		t.Fatalf("channel round trips allocate %.1f objects per message batch, want 0", avg)
	}
}

// TestChannelGrowsForOversizeMessage: a payload larger than the ring used
// to crash recv; now the scratch ring grows once and the message survives
// intact.
func TestChannelGrowsForOversizeMessage(t *testing.T) {
	ch := NewChannel(64)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	_, addr, _, rp := ch.roundTrip(msgZeroCostWrite, 1, 0xabc, 0, payload)
	if addr != 0xabc || !bytes.Equal(rp, payload) {
		t.Fatalf("oversize message corrupted: addr=%#x len=%d", addr, len(rp))
	}
}
