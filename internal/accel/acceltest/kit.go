package acceltest

import (
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Host is a fixed-latency accel.Host over a real memory that logs the
// interrupts it is handed.
type Host struct {
	Mem  *mem.Memory
	Lat  vclock.Duration
	IRQs []IRQ
}

// IRQ is one delivered interrupt.
type IRQ struct {
	At     vclock.Time
	Vector int
}

func (h *Host) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	return at.Add(h.Lat)
}
func (h *Host) ZeroCostRead(addr mem.Addr, p []byte)    { h.Mem.ReadAt(addr, p) }
func (h *Host) ZeroCostWrite(addr mem.Addr, p []byte)   { h.Mem.WriteAt(addr, p) }
func (h *Host) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.Mem.Sum(addr, n) }
func (h *Host) RaiseIRQ(at vclock.Time, v int)          { h.IRQs = append(h.IRQs, IRQ{at, v}) }

// KitModel presents one device model to the kit conformance table.
type KitModel struct {
	Name   string
	Vector int // the model's completion interrupt
	// New builds a fresh, unwired device.
	New func() accel.Device
	// Stage writes task i — operands and descriptor — into m and returns
	// the descriptor's address. Distinct tasks do not overlap.
	Stage func(m *mem.Memory, i int) mem.Addr
}

// kitDevice is the surface the kit gives every model beyond accel.Device.
type kitDevice interface {
	accel.Device
	SetHost(accel.Host)
	MayRaiseIRQ() bool
}

// rig is one device under test on a fresh host.
type rig struct {
	t    *testing.T
	host *Host
	dev  kitDevice
	km   KitModel
	next int // next task to stage
}

func newRig(t *testing.T, km KitModel) *rig {
	t.Helper()
	dev, ok := km.New().(kitDevice)
	if !ok {
		t.Fatalf("%s lacks SetHost or MayRaiseIRQ: it does not embed the kit's Bank", km.Name)
	}
	h := &Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev.SetHost(h)
	return &rig{t: t, host: h, dev: dev, km: km}
}

// ring stages the next task and rings its doorbell at time at.
func (r *rig) ring(at vclock.Time) {
	r.dev.RegWrite(at, devkit.RegDoorbell, uint32(r.km.Stage(r.host.Mem, r.next)))
	r.next++
}

// drain runs the device through NextEvent until it goes idle and returns
// the time of its last event.
func (r *rig) drain() (last vclock.Time) {
	r.t.Helper()
	for i := 0; ; i++ {
		at, ok := r.dev.NextEvent()
		if !ok {
			return last
		}
		if i > 10_000_000 {
			r.t.Fatal("device did not quiesce")
		}
		r.dev.Advance(at)
		last = max(last, at)
	}
}

const us = vclock.Time(vclock.Microsecond)

// KitConformance runs the device-kit conformance table over one model:
// the register, lifecycle, statistics and interrupt contract every kit
// device shares, whatever its functional and performance tracks do.
func KitConformance(t *testing.T, km KitModel) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"doorbell, busy, completion, status", func(t *testing.T, r *rig) {
			if busy, done := r.dev.RegRead(0, devkit.RegBusy), r.dev.RegRead(0, devkit.RegStatus); busy != 0 || done != 0 {
				t.Fatalf("fresh device reads busy %d, status %d", busy, done)
			}
			r.ring(us)
			if busy := r.dev.RegRead(us, devkit.RegBusy); busy != 1 {
				t.Fatalf("RegBusy = %d right after the doorbell, want 1", busy)
			}
			end := r.drain() + us
			if busy, done := r.dev.RegRead(end, devkit.RegBusy), r.dev.RegRead(end, devkit.RegStatus); busy != 0 || done != 1 {
				t.Fatalf("after completion busy %d, status %d, want 0 and 1", busy, done)
			}
			s := r.dev.Stats()
			if s.TasksStarted != 1 || s.TasksCompleted != 1 || s.BusyTime <= 0 || s.DMABytes <= 0 {
				t.Fatalf("stats after one task: %+v", s)
			}
		}},

		{"two overlapping tasks give one busy interval", func(t *testing.T, r *rig) {
			r.dev.RegWrite(0, devkit.RegIRQEnable, 1)
			r.ring(us)
			r.ring(us)
			if busy := r.dev.RegRead(us, devkit.RegBusy); busy != 2 {
				t.Fatalf("RegBusy = %d with two tasks in flight", busy)
			}
			r.drain()
			if len(r.host.IRQs) != 2 {
				t.Fatalf("%d completions, want 2", len(r.host.IRQs))
			}
			lastDone := r.host.IRQs[1].At
			if got, want := r.dev.Stats().BusyTime, lastDone.Sub(us); got != want {
				t.Fatalf("BusyTime %v, want the one interval doorbell..last completion = %v", got, want)
			}
			// A third task after the device went idle opens a second
			// interval; the idle gap is not busy time.
			again := lastDone + 5*us
			r.ring(again)
			r.drain()
			want := lastDone.Sub(us) + r.host.IRQs[2].At.Sub(again)
			if got := r.dev.Stats().BusyTime; got != want {
				t.Fatalf("BusyTime %v after a second interval, want %v", got, want)
			}
		}},

		{"IRQ raised iff enabled, MayRaiseIRQ flips with it", func(t *testing.T, r *rig) {
			now := vclock.Time(0)
			for _, step := range []struct {
				enable   uint32
				wantIRQs int
			}{{0, 0}, {1, 1}, {0, 1}} {
				r.dev.RegWrite(now, devkit.RegIRQEnable, step.enable)
				if got := r.dev.MayRaiseIRQ(); got != (step.enable != 0) {
					t.Fatalf("MayRaiseIRQ = %v after writing %d to RegIRQEnable", got, step.enable)
				}
				r.ring(now)
				now = r.drain() + us
				if len(r.host.IRQs) != step.wantIRQs {
					t.Fatalf("%d interrupts with RegIRQEnable = %d, want %d", len(r.host.IRQs), step.enable, step.wantIRQs)
				}
			}
			if irq := r.host.IRQs[0]; irq.Vector != r.km.Vector {
				t.Fatalf("raised vector %d, want %d", irq.Vector, r.km.Vector)
			}
		}},

		{"unknown offsets read 0 and ignore writes", func(t *testing.T, r *rig) {
			for _, off := range []mem.Addr{0x40, 0xffc} {
				r.dev.RegWrite(0, off, 7)
				if v := r.dev.RegRead(0, off); v != 0 {
					t.Fatalf("offset %#x reads %d", off, v)
				}
			}
			if _, busy := r.dev.NextEvent(); busy || r.dev.Stats() != (accel.DeviceStats{}) || r.dev.MayRaiseIRQ() {
				t.Fatalf("writes to unknown offsets had an effect: stats %+v", r.dev.Stats())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(km.Name+"/"+tc.name, func(t *testing.T) { tc.run(t, newRig(t, km)) })
	}
}

// KitPairConformance checks that a model's DSim and RTL devices report
// the same task lifecycle for the same tasks, and differ in HostSteps
// the way the result bytes pin: the DSim track counts its steps, the RTL
// model reports none.
func KitPairConformance(t *testing.T, dsim, rtl KitModel) {
	run := func(km KitModel) accel.DeviceStats {
		r := newRig(t, km)
		for i := 0; i < 3; i++ {
			r.ring(vclock.Time(i) * us)
		}
		r.drain()
		return r.dev.Stats()
	}
	d, r := run(dsim), run(rtl)
	if d.TasksStarted != 3 || d.TasksCompleted != 3 || r.TasksStarted != 3 || r.TasksCompleted != 3 {
		t.Fatalf("lifecycle differs: %s %+v, %s %+v", dsim.Name, d, rtl.Name, r)
	}
	if d.HostSteps <= 0 || r.HostSteps != 0 {
		t.Fatalf("HostSteps: %s %d (want > 0), %s %d (want 0)", dsim.Name, d.HostSteps, rtl.Name, r.HostSteps)
	}
}
