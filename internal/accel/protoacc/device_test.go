package protoacc

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// protoDevice is the common surface of both models.
type protoDevice interface {
	accel.Device
	RegisterSchema(id uint32, d *MessageDesc)
}

func stageTask(h *acceltest.Host, dev protoDevice) (mem.Addr, *Message, Desc) {
	d := testDesc()
	msg := fillMessage(d)
	dev.RegisterSchema(1, d)
	Store(h.Mem, 0x10000, msg)
	desc := Desc{Root: 0x10000, Out: 0x80000, Schema: 1}
	b := EncodeDesc(desc)
	h.Mem.WriteAt(0x1000, b[:])
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

func readWire(h *acceltest.Host, out mem.Addr) []byte {
	var lenb [4]byte
	h.Mem.ReadAt(out, lenb[:])
	n := binary.LittleEndian.Uint32(lenb[:])
	wire := make([]byte, n)
	h.Mem.ReadAt(out+4, wire)
	return wire
}

func TestDSimSerializesCorrectly(t *testing.T) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: 40 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, msg, desc := stageTask(h, dev)
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	drain(dev)

	if got := dev.RegRead(dev.Now(), devkit.RegStatus); got != 1 {
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
	h := &acceltest.Host{Mem: mem.New(0), Lat: 40 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	descAddr, msg, desc := stageTask(h, dev)
	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	drain(dev)
	if got := dev.RegRead(vclock.Time(1)<<40, devkit.RegStatus); got != 1 {
		t.Fatalf("status = %d", got)
	}
	if !bytes.Equal(readWire(h, desc.Out), Marshal(msg)) {
		t.Fatal("RTL wire output differs from Marshal")
	}
}

func TestDSimAndRTLAgree(t *testing.T) {
	run := func(mk func(h *acceltest.Host) protoDevice) ([]byte, vclock.Time, int) {
		h := &acceltest.Host{Mem: mem.New(0), Lat: 40 * vclock.Nanosecond}
		dev := mk(h)
		descAddr, _, desc := stageTask(h, dev)
		dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
		drain(dev)
		// IRQs are off: the busy time is the completion proxy.
		return readWire(h, desc.Out), vclock.Time(int64(dev.Stats().BusyTime)), len(h.DMAs)
	}
	dsimWire, dsimBusy, dsimDMAs := run(func(h *acceltest.Host) protoDevice {
		d := NewDevice(2 * vclock.GHz)
		d.SetHost(h)
		return d
	})
	rtlWire, rtlBusy, rtlDMAs := run(func(h *acceltest.Host) protoDevice {
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
		h := &acceltest.Host{Mem: mem.New(0), Lat: lat}
		dev := NewDevice(2 * vclock.GHz)
		dev.SetHost(h)
		descAddr, _, _ := stageTask(h, dev)
		dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
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
	h := &acceltest.Host{Mem: mem.New(0), Lat: 20 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	d := testDesc()
	dev.RegisterSchema(1, d)
	const n = 8
	for i := 0; i < n; i++ {
		msg := fillMessage(d)
		base := mem.Addr(0x10000 + i*0x4000)
		Store(h.Mem, base, msg)
		desc := Desc{Root: base, Out: mem.Addr(0x100000 + i*0x1000), Schema: 1}
		b := EncodeDesc(desc)
		descAddr := mem.Addr(0x1000 + i*DescSize)
		h.Mem.WriteAt(descAddr, b[:])
		dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	}
	drain(dev)
	if got := dev.RegRead(dev.Now(), devkit.RegStatus); got != n {
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
			h := &acceltest.Host{Mem: mem.New(0), Lat: 20 * vclock.Nanosecond}
			dev := mk()
			dev.SetHost(h)
			d := testDesc()
			dev.RegisterSchema(1, d)
			const slots, ringBase = 4, 0x1000
			for i := 0; i < slots; i++ {
				base := mem.Addr(0x10000 + i*0x4000)
				Store(h.Mem, base, fillMessage(d))
				b := EncodeDesc(Desc{Root: base, Out: mem.Addr(0x100000 + i*0x1000), Schema: 1})
				h.Mem.WriteAt(mem.Addr(ringBase+i*DescSize), b[:])
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
			if got := dev.RegRead(vclock.Time(1)<<40, devkit.RegStatus); got != slots {
				t.Fatalf("completed = %d, want %d", got, slots)
			}
		})
	}
}

// BenchmarkRTLStep: a batch of eight tasks rung at once on the RTL
// model, which keeps both object fetchers and the field units busy while
// items wait, run to completion by one Advance. Nearly all of it is
// stepped cycles: `go test -run '^$' -bench RTLStep ./internal/accel/protoacc`.
func BenchmarkRTLStep(b *testing.B) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: 400 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	d := testDesc()
	dev.RegisterSchema(1, d)
	const n = 8
	for i := 0; i < n; i++ {
		base := mem.Addr(0x10000 + i*0x4000)
		Store(h.Mem, base, fillMessage(d))
		desc := EncodeDesc(Desc{Root: base, Out: mem.Addr(0x100000 + i*0x1000), Schema: 1})
		h.Mem.WriteAt(mem.Addr(0x1000+i*DescSize), desc[:])
	}
	now := vclock.Time(0)
	b.ResetTimer()
	for range b.N {
		for i := 0; i < n; i++ {
			dev.RegWrite(now, devkit.RegDoorbell, uint32(0x1000+i*DescSize))
		}
		now += vclock.Time(vclock.Millisecond)
		dev.Advance(now)
		h.DMAs = h.DMAs[:0]
	}
	if got := dev.RegRead(now, devkit.RegStatus); got != uint32(n*b.N) {
		b.Fatalf("completed %d tasks, want %d", got, n*b.N)
	}
}

// flatSchema has five fields and no submessage: the first four take the
// four field units at once, the fifth the unit that frees first.
var flatSchema = &MessageDesc{Name: "Flat", Fields: []FieldDesc{
	{Number: 1, Kind: KindInt64},
	{Number: 2, Kind: KindInt64},
	{Number: 3, Kind: KindInt64},
	{Number: 4, Kind: KindInt64},
	{Number: 5, Kind: KindBytes},
}}

// TestRTLTimingOracle runs the kit conformance table over the RTL model
// with a timing oracle that reads the plan's field and store cycles and
// not the kit's units.
func TestRTLTimingOracle(t *testing.T) {
	acceltest.KitConformance(t, acceltest.KitModel{
		Name: "protoacc-rtl",
		New: func() accel.Device {
			d := NewRTLDevice(2 * vclock.GHz)
			d.RegisterSchema(1, flatSchema)
			return d
		},
		Stage: func(m *mem.Memory, i int) mem.Addr {
			msg := NewMessage(flatSchema)
			for f, v := range []uint64{1, 300, 70_000, 1 << 62} {
				msg.Values[f] = Value{Int: v + uint64(i), Set: true}
			}
			msg.Values[4] = Value{Bytes: []byte("a payload the fifth field copies"), Set: true}
			base := mem.Addr(i+1) << 20
			Store(m, base, msg)
			d := EncodeDesc(Desc{Root: base, Out: base + 0x8_0000, Schema: 1})
			m.WriteAt(base+0x7_0000, d[:])
			return base + 0x7_0000
		},
		Alone: rtlAlone,
	})
}

// rtlAlone is when the RTL model completes the flatSchema task at
// descAddr rung alone at time at on h. The clock first steps the cycle
// after the doorbell's. An object fetcher takes the descriptor, and the
// root block on the cycle the descriptor arrives; each holds it for
// descFetchCycles or until its DMA completes. From the next cycle the
// root's fields go to the field units in block order, each to the unit
// that frees first (the lowest on a tie), which holds it for the field's
// cycles and, for a data field, until its payload DMA completes. The
// output writer starts the cycle after the last field ends, and the task
// completes with its DMA.
func rtlAlone(h *acceltest.Host, descAddr mem.Addr, at vclock.Time) vclock.Time {
	clk := 2 * vclock.GHz
	lat := clk.Cycles(h.Lat)
	var db [DescSize]byte
	h.ZeroCostRead(descAddr, db[:])
	desc := decodeDesc(db[:])
	plan := cachedPlan(h, desc.Root, desc.Out, flatSchema)
	root := clk.Cycles(at.Sub(0)) + 1 + 2*max(descFetchCycles, lat) // the cycle the root block arrives
	var units [fieldUnits]int64
	for u := range units {
		units[u] = root + 1
	}
	last := root
	for _, f := range plan.nodes[0].fields {
		u := slices.Index(units[:], slices.Min(units[:]))
		end := units[u] + f.cycles
		if f.dataBytes > 0 {
			end = max(end, units[u]+lat)
		}
		units[u], last = end, max(last, end)
	}
	return vclock.Time(clk.CyclesDur(last + 1 + plan.storeCycles)).Add(h.Lat)
}
