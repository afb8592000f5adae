package jpeg

import (
	"bytes"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// devHost is a fixed-latency accel.Host over a real memory.
type devHost struct {
	mem  *mem.Memory
	lat  vclock.Duration
	irqs []vclock.Time
	dmas int
}

func (h *devHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	h.dmas++
	return at.Add(h.lat)
}
func (h *devHost) ZeroCostRead(addr mem.Addr, p []byte)    { h.mem.ReadAt(addr, p) }
func (h *devHost) ZeroCostWrite(addr mem.Addr, p []byte)   { h.mem.WriteAt(addr, p) }
func (h *devHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.mem.Sum(addr, n) }
func (h *devHost) RaiseIRQ(at vclock.Time, v int)          { h.irqs = append(h.irqs, at) }

// stage writes a test image's bitstream + descriptor into memory and
// returns the descriptor address and expected pixels.
func stage(h *devHost, seed uint64) (mem.Addr, *Image, Desc) {
	img := synthImage(48, 32, seed)
	data := Encode(img, 85, Sub420)
	want, _, err := Decode(data)
	if err != nil {
		panic(err)
	}
	src := mem.Addr(0x10000)
	dst := mem.Addr(0x40000)
	descAddr := mem.Addr(0x1000)
	h.mem.WriteAt(src, data)
	desc := Desc{Src: src, SrcLen: uint32(len(data)), Dst: dst}
	b := EncodeDesc(desc)
	h.mem.WriteAt(descAddr, b[:])
	return descAddr, want, desc
}

func runTask(t *testing.T, dev accel.Device, h *devHost, descAddr mem.Addr) vclock.Time {
	t.Helper()
	dev.RegWrite(0, devkit.RegIRQEnable, 1)
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	// Drive the device to completion through NextEvent.
	for i := 0; i < 1_000_000; i++ {
		at, ok := dev.NextEvent()
		if !ok {
			break
		}
		dev.Advance(at)
	}
	if got := dev.RegRead(vclock.Time(1)<<40, devkit.RegStatus); got != 1 {
		t.Fatalf("status = %d, want 1 completed", got)
	}
	if len(h.irqs) != 1 {
		t.Fatalf("irqs = %d", len(h.irqs))
	}
	return h.irqs[0]
}

func TestDSimDeviceDecodesCorrectly(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 400 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, want, desc := stage(h, 11)
	runTask(t, dev, h, descAddr)

	got := make([]byte, len(want.Pix))
	h.mem.ReadAt(desc.Dst, got)
	if !bytes.Equal(got, want.Pix) {
		t.Fatal("device output differs from functional decode")
	}
}

func TestRTLDeviceDecodesCorrectly(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 400 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, want, desc := stage(h, 11)
	runTask(t, dev, h, descAddr)

	got := make([]byte, len(want.Pix))
	h.mem.ReadAt(desc.Dst, got)
	if !bytes.Equal(got, want.Pix) {
		t.Fatal("RTL output differs from functional decode")
	}
}

func TestDSimIndistinguishableFromRTL(t *testing.T) {
	// Same task on both models: identical outputs, identical DMA counts,
	// and completion times within a modest relative envelope (the LPN
	// abstracts microarchitectural detail but models the same pipeline).
	run := func(mk func() accel.Device) (vclock.Time, int, []byte) {
		h := &devHost{mem: mem.New(0), lat: 400 * vclock.Nanosecond}
		dev := mk()
		switch d := dev.(type) {
		case *Device:
			d.SetHost(h)
		case *RTLDevice:
			d.SetHost(h)
		}
		descAddr, want, desc := stage(h, 23)
		done := runTask(t, dev, h, descAddr)
		out := make([]byte, len(want.Pix))
		h.mem.ReadAt(desc.Dst, out)
		return done, h.dmas, out
	}
	dsimDone, dsimDMAs, dsimOut := run(func() accel.Device { return NewDevice(2 * vclock.GHz) })
	rtlDone, rtlDMAs, rtlOut := run(func() accel.Device { return NewRTLDevice(2 * vclock.GHz) })

	if !bytes.Equal(dsimOut, rtlOut) {
		t.Fatal("functional outputs differ")
	}
	if dsimDMAs != rtlDMAs {
		t.Fatalf("DMA counts differ: dsim %d, rtl %d", dsimDMAs, rtlDMAs)
	}
	ratio := float64(dsimDone) / float64(rtlDone)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("completion times diverge: dsim %v, rtl %v (ratio %.2f)",
			dsimDone, rtlDone, ratio)
	}
}

func TestPipeliningAcrossTasks(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)

	// One task alone.
	descAddr, _, _ := stage(h, 31)
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	for {
		at, ok := dev.NextEvent()
		if !ok {
			break
		}
		dev.Advance(at)
	}
	single := dev.Now()

	// Two tasks back to back on a fresh device.
	h2 := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev2 := NewDevice(2 * vclock.GHz)
	dev2.SetHost(h2)
	da, _, _ := stage(h2, 31)
	dev2.RegWrite(0, devkit.RegDoorbell, uint32(da))
	dev2.RegWrite(0, devkit.RegDoorbell, uint32(da))
	for {
		at, ok := dev2.NextEvent()
		if !ok {
			break
		}
		dev2.Advance(at)
	}
	both := dev2.Now()
	if both >= single*2 {
		t.Fatalf("no pipelining: 2 tasks %v vs single %v", both, single)
	}
	if dev2.RegRead(both, devkit.RegStatus) != 2 {
		t.Fatal("second task did not complete")
	}
}

func TestMalformedBitstream(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	src := mem.Addr(0x10000)
	h.mem.WriteAt(src, []byte{0xde, 0xad, 0xbe, 0xef})
	descAddr := mem.Addr(0x1000)
	b := EncodeDesc(Desc{Src: src, SrcLen: 4, Dst: 0x40000})
	h.mem.WriteAt(descAddr, b[:])
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	for {
		at, ok := dev.NextEvent()
		if !ok {
			break
		}
		dev.Advance(at)
	}
	if dev.DecodeErrors != 1 {
		t.Fatalf("DecodeErrors = %d", dev.DecodeErrors)
	}
	if dev.RegRead(dev.Now(), devkit.RegStatus) != 1 {
		t.Fatal("malformed task did not complete")
	}
}

func TestDMALatencyAffectsCompletion(t *testing.T) {
	run := func(lat vclock.Duration) vclock.Time {
		h := &devHost{mem: mem.New(0), lat: lat}
		dev := NewDevice(2 * vclock.GHz)
		dev.SetHost(h)
		descAddr, _, _ := stage(h, 5)
		return runTask(t, dev, h, descAddr)
	}
	fast := run(4 * vclock.Nanosecond)
	slow := run(2 * vclock.Microsecond)
	if slow <= fast {
		t.Fatalf("higher DMA latency not slower: %v vs %v", slow, fast)
	}
}

func TestDeviceStats(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, want, _ := stage(h, 3)
	runTask(t, dev, h, descAddr)
	s := dev.Stats()
	if s.TasksStarted != 1 || s.TasksCompleted != 1 {
		t.Fatalf("tasks %d/%d", s.TasksStarted, s.TasksCompleted)
	}
	if s.DMABytes < int64(len(want.Pix)) {
		t.Fatalf("DMABytes = %d, want at least the output size %d", s.DMABytes, len(want.Pix))
	}
	if s.BusyTime <= 0 {
		t.Fatal("no busy time")
	}
}
