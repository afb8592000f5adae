package simbricks

import (
	"bytes"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// echoDevice is a trivial device for channel-transparency tests.
type echoDevice struct {
	host accel.Host
	regs map[mem.Addr]uint32
	now  vclock.Time
}

func (d *echoDevice) Name() string { return "echo" }
func (d *echoDevice) RegRead(at vclock.Time, off mem.Addr) uint32 {
	return d.regs[off]
}
func (d *echoDevice) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.regs[off] = v
	if off == 0x100 {
		// Exercise the host path: DMA + zero-cost + IRQ.
		var buf [8]byte
		d.host.ZeroCostRead(mem.Addr(v), buf[:])
		d.host.ZeroCostWrite(mem.Addr(v)+0x1000, buf[:])
		d.host.DMA(at, mem.Read, mem.Addr(v), 8)
		d.host.RaiseIRQ(at, 3)
	}
}
func (d *echoDevice) Advance(t vclock.Time) {
	if t > d.now {
		d.now = t
	}
}
func (d *echoDevice) NextEvent() (vclock.Time, bool) { return vclock.Never, false }
func (d *echoDevice) Stats() accel.DeviceStats       { return accel.DeviceStats{} }
func (d *echoDevice) SetHost(h accel.Host)           { d.host = h }

type recHost struct {
	mem  *mem.Memory
	dmas int
	irqs int
}

func (h *recHost) DMA(at vclock.Time, k mem.AccessKind, a mem.Addr, s int) vclock.Time {
	h.dmas++
	return at.Add(100 * vclock.Nanosecond)
}
func (h *recHost) ZeroCostRead(a mem.Addr, p []byte)       { h.mem.ReadAt(a, p) }
func (h *recHost) ZeroCostWrite(a mem.Addr, p []byte)      { h.mem.WriteAt(a, p) }
func (h *recHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.mem.Sum(addr, n) }
func (h *recHost) RaiseIRQ(at vclock.Time, v int)          { h.irqs++ }

func TestChannelTransparency(t *testing.T) {
	inner := &echoDevice{regs: make(map[mem.Addr]uint32)}
	ch := NewChannel(0)
	dev := WrapDevice(inner, ch)
	host := &recHost{mem: mem.New(0)}
	dev.SetHost(host)

	host.mem.WriteAt(0x2000, []byte("payload!"))
	dev.RegWrite(10, 0x4, 0xdead)
	if got := dev.RegRead(20, 0x4); got != 0xdead {
		t.Fatalf("RegRead through channel = %#x", got)
	}
	dev.RegWrite(30, 0x100, 0x2000) // triggers DMA + zero-cost + IRQ
	if host.dmas != 1 || host.irqs != 1 {
		t.Fatalf("dmas=%d irqs=%d", host.dmas, host.irqs)
	}
	var out [8]byte
	host.mem.ReadAt(0x3000, out[:])
	if !bytes.Equal(out[:], []byte("payload!")) {
		t.Fatalf("zero-cost write through channel corrupted: %q", out)
	}
	dev.Advance(1000)
	if inner.now != 1000 {
		t.Fatal("Advance not forwarded")
	}
	if _, ok := dev.NextEvent(); ok {
		t.Fatal("idle device reported an event")
	}
	if ch.Msgs == 0 || ch.Bytes == 0 {
		t.Fatal("no channel traffic recorded")
	}
}

func TestChannelCountsMessages(t *testing.T) {
	inner := &echoDevice{regs: make(map[mem.Addr]uint32)}
	ch := NewChannel(4096)
	dev := WrapDevice(inner, ch)
	dev.SetHost(&recHost{mem: mem.New(0)})
	before := ch.Msgs
	dev.RegWrite(0, 0x4, 1)
	if ch.Msgs != before+1 {
		t.Fatalf("RegWrite produced %d messages", ch.Msgs-before)
	}
	dev.RegRead(0, 0x4)
	if ch.Msgs != before+3 {
		t.Fatalf("RegRead produced %d messages", ch.Msgs-before-1)
	}
}

func TestLargeZeroCostChunks(t *testing.T) {
	inner := &echoDevice{regs: make(map[mem.Addr]uint32)}
	ch := NewChannel(0)
	dev := WrapDevice(inner, ch)
	host := &recHost{mem: mem.New(0)}
	dev.SetHost(host)

	big := make([]byte, 100<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	host.mem.WriteAt(0x10000, big)
	// Drive through the adapter-wrapped host directly.
	ha := &hostAdapter{h: host, ch: ch}
	got := make([]byte, len(big))
	ha.ZeroCostRead(0x10000, got)
	if !bytes.Equal(got, big) {
		t.Fatal("chunked zero-cost read corrupted")
	}
	ha.ZeroCostWrite(0x80000, big)
	back := make([]byte, len(big))
	host.mem.ReadAt(0x80000, back)
	if !bytes.Equal(back, big) {
		t.Fatal("chunked zero-cost write corrupted")
	}
}

// A sum crosses the channel as one request and one response whatever the
// span's size, and arrives as the host computed it.
func TestZeroCostSumIsTwoMessages(t *testing.T) {
	ch := NewChannel(0)
	host := &recHost{mem: mem.New(0)}
	host.mem.WriteAt(0x10000, bytes.Repeat([]byte{0xa5}, 100<<10))
	ha := &hostAdapter{h: host, ch: ch}
	before := ch.Msgs
	if got, want := ha.ZeroCostSum(0x10000+17, 90<<10), host.mem.Sum(0x10000+17, 90<<10); got != want {
		t.Fatalf("sum through the channel = %#x, the host's = %#x", got, want)
	}
	if ch.Msgs != before+2 {
		t.Fatalf("a 90 KB sum took %d messages, want 2", ch.Msgs-before)
	}
}
