package protoacc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

type devHost struct {
	mem  *mem.Memory
	lat  vclock.Duration
	dmas int
	irqs []vclock.Time
}

func (h *devHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	h.dmas++
	return at.Add(h.lat)
}
func (h *devHost) ZeroCostRead(addr mem.Addr, p []byte)    { h.mem.ReadAt(addr, p) }
func (h *devHost) ZeroCostWrite(addr mem.Addr, p []byte)   { h.mem.WriteAt(addr, p) }
func (h *devHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.mem.Sum(addr, n) }
func (h *devHost) RaiseIRQ(at vclock.Time, v int)          { h.irqs = append(h.irqs, at) }

// protoDevice is the common surface of both models.
type protoDevice interface {
	accel.Device
	RegisterSchema(id uint32, d *MessageDesc)
}

func stageTask(h *devHost, dev protoDevice) (mem.Addr, *Message, Desc) {
	d := testDesc()
	msg := fillMessage(d)
	dev.RegisterSchema(1, d)
	Store(h.mem, 0x10000, msg)
	desc := Desc{Root: 0x10000, Out: 0x80000, Schema: 1}
	b := EncodeDesc(desc)
	h.mem.WriteAt(0x1000, b[:])
	return 0x1000, msg, desc
}

func drain(dev accel.Device) {
	for i := 0; i < 10_000_000; i++ {
		at, ok := dev.NextEvent()
		if !ok {
			return
		}
		dev.Advance(at)
	}
	panic("device did not quiesce")
}

func readWire(h *devHost, out mem.Addr) []byte {
	var lenb [4]byte
	h.mem.ReadAt(out, lenb[:])
	n := binary.LittleEndian.Uint32(lenb[:])
	wire := make([]byte, n)
	h.mem.ReadAt(out+4, wire)
	return wire
}

func TestDSimSerializesCorrectly(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 40 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, msg, desc := stageTask(h, dev)
	dev.RegWrite(0, RegDoorbell, uint32(descAddr))
	drain(dev)

	if got := dev.RegRead(dev.Now(), RegStatus); got != 1 {
		t.Fatalf("status = %d", got)
	}
	wire := readWire(h, desc.Out)
	if !bytes.Equal(wire, Marshal(msg)) {
		t.Fatal("device wire output differs from Marshal")
	}
	// And it round-trips.
	back, err := Unmarshal(msg.Desc, wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Values[0].Int != msg.Values[0].Int {
		t.Fatal("round trip corrupted")
	}
}

func TestRTLSerializesCorrectly(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 40 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, msg, desc := stageTask(h, dev)
	dev.RegWrite(0, RegDoorbell, uint32(descAddr))
	drain(dev)
	if got := dev.RegRead(vclock.Time(1)<<40, RegStatus); got != 1 {
		t.Fatalf("status = %d", got)
	}
	if !bytes.Equal(readWire(h, desc.Out), Marshal(msg)) {
		t.Fatal("RTL wire output differs from Marshal")
	}
}

func TestDSimAndRTLAgree(t *testing.T) {
	run := func(mk func(h *devHost) protoDevice) ([]byte, vclock.Time, int) {
		h := &devHost{mem: mem.New(0), lat: 40 * vclock.Nanosecond}
		dev := mk(h)
		descAddr, _, desc := stageTask(h, dev)
		dev.RegWrite(0, RegDoorbell, uint32(descAddr))
		drain(dev)
		if len(h.irqs) == 0 {
			// IRQs disabled; use busy time end as completion proxy.
		}
		return readWire(h, desc.Out), vclock.Time(int64(dev.Stats().BusyTime)), h.dmas
	}
	dsimWire, dsimBusy, dsimDMAs := run(func(h *devHost) protoDevice {
		d := NewDevice(2 * vclock.GHz)
		d.SetHost(h)
		return d
	})
	rtlWire, rtlBusy, rtlDMAs := run(func(h *devHost) protoDevice {
		d := NewRTLDevice(2 * vclock.GHz)
		d.SetHost(h)
		return d
	})
	if !bytes.Equal(dsimWire, rtlWire) {
		t.Fatal("outputs differ")
	}
	if dsimDMAs != rtlDMAs {
		t.Fatalf("DMA counts differ: %d vs %d", dsimDMAs, rtlDMAs)
	}
	ratio := float64(dsimBusy) / float64(rtlBusy)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("busy times diverge: dsim %v rtl %v", dsimBusy, rtlBusy)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// Protoacc chases pointers: its completion time must grow with
	// memory latency — the mechanism behind the paper's finding that
	// Protoacc only wins when memory latency < 4ns.
	run := func(lat vclock.Duration) vclock.Duration {
		h := &devHost{mem: mem.New(0), lat: lat}
		dev := NewDevice(2 * vclock.GHz)
		dev.SetHost(h)
		descAddr, _, _ := stageTask(h, dev)
		dev.RegWrite(0, RegDoorbell, uint32(descAddr))
		drain(dev)
		return dev.Stats().BusyTime
	}
	fast := run(4 * vclock.Nanosecond)
	slow := run(400 * vclock.Nanosecond)
	if slow < fast*2 {
		t.Fatalf("latency insensitive: %v vs %v", slow, fast)
	}
}

func TestBatchOfTasks(t *testing.T) {
	h := &devHost{mem: mem.New(0), lat: 20 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	d := testDesc()
	dev.RegisterSchema(1, d)
	const n = 8
	for i := 0; i < n; i++ {
		msg := fillMessage(d)
		base := mem.Addr(0x10000 + i*0x4000)
		Store(h.mem, base, msg)
		desc := Desc{Root: base, Out: mem.Addr(0x100000 + i*0x1000), Schema: 1}
		b := EncodeDesc(desc)
		descAddr := mem.Addr(0x1000 + i*DescSize)
		h.mem.WriteAt(descAddr, b[:])
		dev.RegWrite(0, RegDoorbell, uint32(descAddr))
	}
	drain(dev)
	if got := dev.RegRead(dev.Now(), RegStatus); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
	if len(dev.TaskLatency) != n {
		t.Fatalf("TaskLatency entries = %d", len(dev.TaskLatency))
	}
	for _, s := range dev.TaskLatency {
		if s.Done <= s.Submit {
			t.Fatal("non-positive task latency")
		}
	}
	// All outputs valid.
	for i := 0; i < n; i++ {
		wire := readWire(h, mem.Addr(0x100000+i*0x1000))
		if _, err := Unmarshal(d, wire); err != nil {
			t.Fatalf("task %d output invalid: %v", i, err)
		}
	}
}

// TestBatchRespectsTheRing: a batch doorbell launches descriptors that
// are in the ring — none while the ring size is unset (it used to divide
// by zero), and at most the ring's worth however large the count.
func TestBatchRespectsTheRing(t *testing.T) {
	for name, mk := range map[string]func() protoDevice{
		"dsim": func() protoDevice { return NewDevice(2 * vclock.GHz) },
		"rtl":  func() protoDevice { return NewRTLDevice(2 * vclock.GHz) },
	} {
		t.Run(name, func(t *testing.T) {
			h := &devHost{mem: mem.New(0), lat: 20 * vclock.Nanosecond}
			dev := mk()
			dev.(interface{ SetHost(accel.Host) }).SetHost(h)
			d := testDesc()
			dev.RegisterSchema(1, d)
			const slots, ringBase = 4, 0x1000
			for i := 0; i < slots; i++ {
				base := mem.Addr(0x10000 + i*0x4000)
				Store(h.mem, base, fillMessage(d))
				b := EncodeDesc(Desc{Root: base, Out: mem.Addr(0x100000 + i*0x1000), Schema: 1})
				h.mem.WriteAt(mem.Addr(ringBase+i*DescSize), b[:])
			}

			dev.RegWrite(0, RegRingBase, ringBase)
			dev.RegWrite(0, RegBatch, 2) // ring size not written yet
			if s := dev.Stats(); s.TasksStarted != 0 {
				t.Fatalf("a batch on an unset ring started %d tasks", s.TasksStarted)
			}

			dev.RegWrite(0, RegRingSize, slots)
			dev.RegWrite(0, RegBatch, slots+3)
			if s := dev.Stats(); s.TasksStarted != slots {
				t.Fatalf("a batch of %d on a ring of %d started %d tasks", slots+3, slots, s.TasksStarted)
			}
			drain(dev)
			if got := dev.RegRead(vclock.Time(1)<<40, RegStatus); got != slots {
				t.Fatalf("completed = %d, want %d", got, slots)
			}
		})
	}
}
