package hostkit_test

import (
	"reflect"
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/hostkit"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

const (
	ns = vclock.Nanosecond
	us = vclock.Microsecond
)

func adv(t vclock.Time) acceltest.Call { return acceltest.Call{Op: 'A', At: t} }

type irq struct {
	at     vclock.Time
	vector int
}

// rig is a complex over fake devices, one 4KB MMIO window each from
// 0x8000_0000 up, with an interrupt policy that records what was raised.
type rig struct {
	*hostkit.Complex
	mem   *mem.Memory
	devs  []*acceltest.Device
	binds []*hostkit.Binding
	irqs  []irq
}

func newRig(devs ...*acceltest.Device) *rig {
	r := &rig{mem: mem.New(0x1000_0000), devs: devs}
	r.Complex = hostkit.NewComplex(r.mem, func(at vclock.Time, vector int) {
		r.irqs = append(r.irqs, irq{at, vector})
	})
	for i, d := range devs {
		b := &hostkit.Binding{Device: d, MMIOBase: mem.Addr(0x8000_0000 + i*0x1000), MMIOSize: 0x1000}
		d.Host = r.HostFor(b)
		r.Attach(b)
		r.binds = append(r.binds, b)
	}
	return r
}

func TestAttachDefaultsAndLookupEdges(t *testing.T) {
	r := newRig(&acceltest.Device{}, &acceltest.Device{})
	explicit := &hostkit.Binding{Device: &acceltest.Device{}, MMIOBase: 0x9000_0000, MMIOSize: 16,
		MMIOCost: 7 * ns, MMIOWriteCost: 3 * ns}
	r.Attach(explicit)

	if b := r.binds[0]; b.MMIOCost != 850*ns || b.MMIOWriteCost != 120*ns {
		t.Errorf("defaults = %v/%v, want 850ns/120ns", b.MMIOCost, b.MMIOWriteCost)
	}
	if explicit.MMIOCost != 7*ns || explicit.MMIOWriteCost != 3*ns {
		t.Errorf("explicit costs overwritten: %v/%v", explicit.MMIOCost, explicit.MMIOWriteCost)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	for _, tc := range []struct {
		addr mem.Addr
		want *hostkit.Binding
	}{
		{0x8000_0000 - 1, nil},
		{0x8000_0000, r.binds[0]},
		{0x8000_0fff, r.binds[0]},
		{0x8000_1000, r.binds[1]}, // base+size of window 0 is base of window 1
		{0x8000_1fff, r.binds[1]},
		{0x8000_2000, nil},
		{0x9000_0000 - 1, nil},
		{0x9000_0000, explicit},
		{0x9000_000f, explicit},
		{0x9000_0010, nil},
	} {
		if got := r.Lookup(tc.addr); got != tc.want {
			t.Errorf("Lookup(%#x) = %p, want %p", uint64(tc.addr), got, tc.want)
		}
	}
}

func TestAdvanceIsMonotone(t *testing.T) {
	dev := &acceltest.Device{}
	r := newRig(dev)
	r.Advance(10)
	r.Advance(10) // not stale: equal times re-advance (a trap at the same instant)
	r.Advance(4)  // stale
	r.Advance(30)
	want := []acceltest.Call{adv(10), adv(10), adv(30)}
	if !reflect.DeepEqual(dev.Calls, want) {
		t.Errorf("calls = %v, want %v", dev.Calls, want)
	}
	if r.Time() != 30 {
		t.Errorf("Time = %v, want 30", r.Time())
	}
}

func TestHostShim(t *testing.T) {
	r := newRig(&acceltest.Device{IRQ: 9})
	h := r.devs[0].Host
	if got := h.DMA(100, mem.Read, 0, 64); got != 100 {
		t.Errorf("DMA without a port completes at %v, want 100 (instantly)", got)
	}
	ported := &hostkit.Binding{Device: &acceltest.Device{}, DMAPort: memsys.Fixed{Latency: 40}}
	if got := r.HostFor(ported).DMA(100, mem.Read, 0, 64); got != 140 {
		t.Errorf("DMA through a 40ps port completes at %v, want 140", got)
	}
	buf := r.mem.Alloc("buf", 64)
	h.ZeroCostWrite(buf.Base, []byte{1, 2, 3})
	got := make([]byte, 3)
	h.ZeroCostRead(buf.Base, got)
	if !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("zero-cost round trip = %v", got)
	}
	h.RaiseIRQ(55, 9)
	if !reflect.DeepEqual(r.irqs, []irq{{55, 9}}) {
		t.Errorf("raised = %v, want the engine policy to see {55 9}", r.irqs)
	}
}

// script drives a complex through the observation pattern of a host
// loop: every grant is followed by a joined NextEvent, so stepper lanes
// cannot coalesce grants and the per-device call sequence is defined.
func script(r *rig, afterFirstAdvance func()) {
	for _, d := range r.devs {
		d.RegWrite(0, 0, 1) // launch one task per device
	}
	for i, t := range []vclock.Time{vclock.Time(2 * us), vclock.Time(1 * us), vclock.Time(6 * us), vclock.Time(20 * us)} {
		r.Advance(t)
		if i == 0 && afterFirstAdvance != nil {
			afterFirstAdvance()
		}
		r.NextEvent()
	}
}

func TestSerialAndParallelDriveDevicesIdentically(t *testing.T) {
	mk := func() *rig {
		return newRig(&acceltest.Device{Busy: 5 * us}, &acceltest.Device{Busy: 3 * us, IRQ: 4}, &acceltest.Device{Busy: 9 * us})
	}
	serial := mk()
	script(serial, nil)
	serial.Stop() // never started: no-op
	if lanes, wall := serial.IntraStats(); lanes != 0 || wall != 0 {
		t.Errorf("serial IntraStats = %d, %v; want 0, 0", lanes, wall)
	}

	par := mk()
	par.Start(1) // serial request: no lanes
	if par.Parallel() {
		t.Fatal("Start(1) started lanes")
	}
	par.Start(3)
	par.Start(3) // already started: no-op
	if !par.Parallel() {
		t.Fatal("Start(3) did not start lanes")
	}
	script(par, func() {
		// The IRQ-capable device is advanced inline: its Advance has
		// already happened on this goroutine, no join needed.
		calls := par.devs[1].Calls
		if last := calls[len(calls)-1]; last != adv(vclock.Time(2*us)) {
			t.Errorf("IRQ-capable device not advanced inline: last call %v", last)
		}
	})
	par.Stop()
	if par.Parallel() {
		t.Fatal("Stop left lanes live")
	}
	lanes, wall := par.IntraStats()
	if lanes != 2 {
		t.Errorf("lanes = %d, want 2 (intra 3 = host + 2 steppers)", lanes)
	}
	par.Stop() // idempotent: device wall is folded once
	if l2, w2 := par.IntraStats(); l2 != lanes || w2 != wall {
		t.Errorf("second Stop changed IntraStats: %d, %v -> %d, %v", lanes, wall, l2, w2)
	}

	for i := range serial.devs {
		if !reflect.DeepEqual(par.devs[i].Calls, serial.devs[i].Calls) {
			t.Errorf("device %d call sequence diverged:\n parallel %v\n serial   %v", i, par.devs[i].Calls, serial.devs[i].Calls)
		}
	}
	wantIRQ := []irq{{vclock.Time(3 * us), 4}}
	if !reflect.DeepEqual(serial.irqs, wantIRQ) || !reflect.DeepEqual(par.irqs, wantIRQ) {
		t.Errorf("raised: serial %v, parallel %v; want %v", serial.irqs, par.irqs, wantIRQ)
	}
}

func TestStartWithoutDevicesStaysSerial(t *testing.T) {
	r := newRig()
	r.Start(4)
	if r.Parallel() {
		t.Fatal("a complex without devices started lanes")
	}
	if _, ok := r.NextEvent(); ok {
		t.Fatal("an empty complex reported a device event")
	}
}

func TestNextInlineEventSkipsLaneDevices(t *testing.T) {
	r := newRig(&acceltest.Device{Busy: 2 * us}, &acceltest.Device{Busy: 7 * us, IRQ: 4})
	r.Start(2)
	defer r.Stop()
	for _, d := range r.devs {
		d.RegWrite(0, 0, 1)
	}
	if at, ok := r.NextInlineEvent(); !ok || at != vclock.Time(7*us) {
		t.Errorf("NextInlineEvent = %v, %v; want the IRQ-capable device's 7us", at, ok)
	}
	if at, ok := r.NextEvent(); !ok || at != vclock.Time(2*us) {
		t.Errorf("NextEvent = %v, %v; want the lane device's 2us", at, ok)
	}
}
