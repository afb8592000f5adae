package jpeg

import (
	"bytes"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// stage writes a test image's bitstream + descriptor into memory and
// returns the descriptor address and expected pixels.
func stage(h *acceltest.Host, seed uint64) (mem.Addr, *Image, Desc) {
	return stageImage(h, 48, 32, seed, 0x1000, 0x10000, 0x40000)
}

// stageImage is stage for a w x hgt image whose descriptor, bitstream and
// raster sit at descAddr, src and dst.
func stageImage(h *acceltest.Host, w, hgt int, seed uint64, descAddr, src, dst mem.Addr) (mem.Addr, *Image, Desc) {
	img := synthImage(w, hgt, seed)
	data := Encode(img, 85, Sub420)
	want, _, err := Decode(data)
	if err != nil {
		panic(err)
	}
	h.Mem.WriteAt(src, data)
	desc := Desc{Src: src, SrcLen: uint32(len(data)), Dst: dst}
	b := EncodeDesc(desc)
	h.Mem.WriteAt(descAddr, b[:])
	return descAddr, want, desc
}

// drain advances dev through every event it has.
func drain(dev accel.Device) {
	for {
		at, ok := dev.NextEvent()
		if !ok {
			return
		}
		dev.Advance(at)
	}
}

func runTask(t *testing.T, dev accel.Device, h *acceltest.Host, descAddr mem.Addr) vclock.Time {
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
	if len(h.IRQs) != 1 {
		t.Fatalf("irqs = %d", len(h.IRQs))
	}
	return h.IRQs[0]
}

func TestDSimDeviceDecodesCorrectly(t *testing.T) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: 400 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, want, desc := stage(h, 11)
	runTask(t, dev, h, descAddr)

	got := make([]byte, len(want.Pix))
	h.Mem.ReadAt(desc.Dst, got)
	if !bytes.Equal(got, want.Pix) {
		t.Fatal("device output differs from functional decode")
	}
}

func TestRTLDeviceDecodesCorrectly(t *testing.T) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: 400 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, want, desc := stage(h, 11)
	runTask(t, dev, h, descAddr)

	got := make([]byte, len(want.Pix))
	h.Mem.ReadAt(desc.Dst, got)
	if !bytes.Equal(got, want.Pix) {
		t.Fatal("RTL output differs from functional decode")
	}
}

func TestDSimIndistinguishableFromRTL(t *testing.T) {
	// Same task on both models: identical outputs, identical DMA counts,
	// and completion times within a modest relative envelope (the LPN
	// abstracts microarchitectural detail but models the same pipeline).
	run := func(mk func() accel.Device) (vclock.Time, int, []byte) {
		h := &acceltest.Host{Mem: mem.New(0), Lat: 400 * vclock.Nanosecond}
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
		h.Mem.ReadAt(desc.Dst, out)
		return done, len(h.DMAs), out
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
	h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)

	// One task alone.
	descAddr, _, _ := stage(h, 31)
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	drain(dev)
	single := dev.Now()

	// Two tasks back to back on a fresh device.
	h2 := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev2 := NewDevice(2 * vclock.GHz)
	dev2.SetHost(h2)
	da, _, _ := stage(h2, 31)
	dev2.RegWrite(0, devkit.RegDoorbell, uint32(da))
	dev2.RegWrite(0, devkit.RegDoorbell, uint32(da))
	drain(dev2)
	both := dev2.Now()
	if both >= single*2 {
		t.Fatalf("no pipelining: 2 tasks %v vs single %v", both, single)
	}
	if dev2.RegRead(both, devkit.RegStatus) != 2 {
		t.Fatal("second task did not complete")
	}
}

func TestMalformedBitstream(t *testing.T) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	src := mem.Addr(0x10000)
	h.Mem.WriteAt(src, []byte{0xde, 0xad, 0xbe, 0xef})
	descAddr := mem.Addr(0x1000)
	dst := mem.Addr(0x40000)
	b := EncodeDesc(Desc{Src: src, SrcLen: 4, Dst: dst})
	h.Mem.WriteAt(descAddr, b[:])
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	drain(dev)
	if dev.RegRead(dev.Now(), devkit.RegStatus) != 1 {
		t.Fatal("malformed task did not complete")
	}
	// The descriptor, one scan of the input, and an empty store.
	if got, want := dev.Stats().DMABytes, int64(DescSize+4); got != want {
		t.Errorf("DMABytes = %d, want %d", got, want)
	}
	out := make([]byte, 64)
	h.Mem.ReadAt(dst, out)
	if !bytes.Equal(out, make([]byte, len(out))) {
		t.Errorf("malformed task wrote output: % x", out)
	}
}

func TestDMALatencyAffectsCompletion(t *testing.T) {
	run := func(lat vclock.Duration) vclock.Time {
		h := &acceltest.Host{Mem: mem.New(0), Lat: lat}
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
	h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
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

// TestRowTableAcrossTasks: two images of different row counts in flight
// on one DSim device at once, then a third after the device went idle
// (which resets its row table). Every raster decodes, every task raises
// its interrupt, and the device moves exactly the bytes the three tasks
// move on their own.
func TestRowTableAcrossTasks(t *testing.T) {
	type image struct {
		w, h int
		seed uint64
		src  mem.Addr
	}
	images := []image{{48, 32, 41, 0x10000}, {64, 64, 42, 0x20000}, {32, 48, 43, 0x30000}}
	stageNth := func(h *acceltest.Host, i int) (mem.Addr, *Image, Desc) {
		im := images[i]
		return stageImage(h, im.w, im.h, im.seed, mem.Addr(0x1000+0x100*i), im.src, mem.Addr(0x100000*(i+1)))
	}

	var single int64
	for i := range images {
		h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
		dev := NewDevice(2 * vclock.GHz)
		dev.SetHost(h)
		descAddr, _, _ := stageNth(h, i)
		runTask(t, dev, h, descAddr)
		single += dev.Stats().DMABytes
	}

	h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	dev.RegWrite(0, devkit.RegIRQEnable, 1)
	var wants []*Image
	var descs []Desc
	ring := func(i int) {
		descAddr, want, desc := stageNth(h, i)
		wants, descs = append(wants, want), append(descs, desc)
		dev.RegWrite(dev.Now(), devkit.RegDoorbell, uint32(descAddr))
	}
	// A 4:2:0 MCU row is 16 pixels high.
	rowsOf := func(i int) int { return intCeil(images[i].h, 16) }
	ring(0)
	ring(1)
	if got, want := len(dev.rows), rowsOf(0)+rowsOf(1); got != want {
		t.Fatalf("two tasks in flight plan %d rows, want %d", got, want)
	}
	drain(dev)
	if !dev.Idle() {
		t.Fatal("device busy after its two tasks drained")
	}
	ring(2)
	if got, want := len(dev.rows), rowsOf(2); got != want {
		t.Fatalf("a doorbell on the idle device left %d rows in the table, want its own %d", got, want)
	}
	drain(dev)

	for i, want := range wants {
		got := make([]byte, len(want.Pix))
		h.Mem.ReadAt(descs[i].Dst, got)
		if !bytes.Equal(got, want.Pix) {
			t.Errorf("image %d: raster differs from the functional decode", i)
		}
	}
	if len(h.IRQs) != 3 {
		t.Errorf("irqs = %d, want 3", len(h.IRQs))
	}
	if got := dev.Stats().DMABytes; got != single {
		t.Errorf("DMABytes = %d, want %d, the sum of the single-task runs", got, single)
	}
}

// TestRTLTimingOracle runs the kit conformance table over the RTL model
// with a timing oracle that reads the plan's row cycles and not the
// kit's units.
func TestRTLTimingOracle(t *testing.T) {
	acceltest.KitConformance(t, acceltest.KitModel{
		Name: "jpeg-rtl",
		New:  func() accel.Device { return NewRTLDevice(2 * vclock.GHz) },
		Stage: func(m *mem.Memory, i int) mem.Addr {
			base := mem.Addr(i+1) << 20
			desc, _, _ := stageImage(&acceltest.Host{Mem: m}, 48, 40, uint64(i), base, base+0x1_0000, base+0x8_0000)
			return desc
		},
		Alone: rtlAlone,
	})
}

// rtlAlone is when the RTL model completes the task at descAddr rung
// alone at time at on h. The clock first steps the cycle after the
// doorbell's. Each unit takes a row once it is free and the unit before
// let the row go on an earlier cycle, and holds it for the row's cycles,
// at least one; the fetch unit also waits for its DMA. The task
// completes with its last row's store DMA.
func rtlAlone(h *acceltest.Host, descAddr mem.Addr, at vclock.Time) vclock.Time {
	clk := 2 * vclock.GHz
	lat := clk.Cycles(h.Lat)
	fetch := clk.Cycles(at.Sub(0)) + 1
	var huff, idct int64 // the cycles the two units let their last row go
	for _, r := range taskRows(h, descAddr) {
		fetch += max(r.fetch, lat)
		huff = max(fetch+1, huff) + max(r.huff, 1)
		idct = max(huff+1, idct) + max(r.idct+r.store, 1)
	}
	return vclock.Time(clk.CyclesDur(idct)).Add(h.Lat)
}
