package acceltest

import (
	"slices"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Host is a fixed-latency accel.Host over a real memory that logs the
// DMAs it completes and the interrupts it is handed.
type Host struct {
	Mem  *mem.Memory
	Lat  vclock.Duration
	DMAs []vclock.Time // completion times, in issue order
	IRQs []vclock.Time // raise times, in raise order
}

func (h *Host) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	done := at.Add(h.Lat)
	h.DMAs = append(h.DMAs, done)
	return done
}
func (h *Host) ZeroCostRead(addr mem.Addr, p []byte)    { h.Mem.ReadAt(addr, p) }
func (h *Host) ZeroCostWrite(addr mem.Addr, p []byte)   { h.Mem.WriteAt(addr, p) }
func (h *Host) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.Mem.Sum(addr, n) }
func (h *Host) RaiseIRQ(at vclock.Time)                 { h.IRQs = append(h.IRQs, at) }

// KitModel presents one device model to the kit conformance table.
type KitModel struct {
	Name string
	// New builds a fresh, unwired device.
	New func() accel.Device
	// Stage writes task i — operands and descriptor — into m and returns
	// the descriptor's address. Distinct tasks do not overlap.
	Stage func(m *mem.Memory, i int) mem.Addr
	// Alone, if set, is an RTL model's timing oracle: when the task
	// whose descriptor Stage wrote at desc completes, rung alone at time
	// at on h. A family computes it from its plan's cycle table and
	// h.Lat, without the device kit's units.
	Alone func(h *Host, desc mem.Addr, at vclock.Time) vclock.Time
}

// rig is one device under test on a fresh host.
type rig struct {
	t    *testing.T
	host *Host
	dev  accel.Device
	km   KitModel
	next int // next task to stage
}

func newRig(t *testing.T, km KitModel) *rig {
	h := &Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
	dev := km.New()
	dev.SetHost(h)
	return &rig{t: t, host: h, dev: dev, km: km}
}

// read and write are register accesses as a host makes them: the device
// is advanced to the access time first.
func (r *rig) read(at vclock.Time, off mem.Addr) uint32 {
	r.dev.Advance(at)
	return r.dev.RegRead(at, off)
}

func (r *rig) write(at vclock.Time, off mem.Addr, v uint32) {
	r.dev.Advance(at)
	r.dev.RegWrite(at, off, v)
}

// ring stages the next task and rings its doorbell at time at.
func (r *rig) ring(at vclock.Time) {
	r.write(at, devkit.RegDoorbell, uint32(r.km.Stage(r.host.Mem, r.next)))
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
// device shares, whatever its functional and performance tracks do, and
// for a model with a timing oracle (KitModel.Alone) a task's completion
// time.
func KitConformance(t *testing.T, km KitModel) {
	type kitCase struct {
		name string
		run  func(t *testing.T, r *rig)
	}
	cases := []kitCase{
		{"doorbell, busy, completion, status", func(t *testing.T, r *rig) {
			if busy, done := r.read(0, devkit.RegBusy), r.read(0, devkit.RegStatus); busy != 0 || done != 0 {
				t.Fatalf("fresh device reads busy %d, status %d", busy, done)
			}
			r.ring(us)
			if busy := r.read(us, devkit.RegBusy); busy != 1 {
				t.Fatalf("RegBusy = %d right after the doorbell, want 1", busy)
			}
			end := r.drain() + us
			if busy, done := r.read(end, devkit.RegBusy), r.read(end, devkit.RegStatus); busy != 0 || done != 1 {
				t.Fatalf("after completion busy %d, status %d, want 0 and 1", busy, done)
			}
			s := r.dev.Stats()
			if s.TasksStarted != 1 || s.TasksCompleted != 1 || s.BusyTime <= 0 || s.DMABytes <= 0 {
				t.Fatalf("stats after one task: %+v", s)
			}
		}},

		{"two overlapping tasks give one busy interval", func(t *testing.T, r *rig) {
			r.write(0, devkit.RegIRQEnable, 1)
			r.ring(us)
			r.ring(us)
			if busy := r.read(us, devkit.RegBusy); busy != 2 {
				t.Fatalf("RegBusy = %d with two tasks in flight", busy)
			}
			r.drain()
			if len(r.host.IRQs) != 2 {
				t.Fatalf("%d completions, want 2", len(r.host.IRQs))
			}
			lastDone := r.host.IRQs[1]
			if got, want := r.dev.Stats().BusyTime, lastDone.Sub(us); got != want {
				t.Fatalf("BusyTime %v, want the one interval doorbell..last completion = %v", got, want)
			}
			// A third task after the device went idle opens a second
			// interval; the idle gap is not busy time.
			again := lastDone + 5*us
			r.ring(again)
			r.drain()
			want := lastDone.Sub(us) + r.host.IRQs[2].Sub(again)
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
				r.write(now, devkit.RegIRQEnable, step.enable)
				if got := r.dev.MayRaiseIRQ(); got != (step.enable != 0) {
					t.Fatalf("MayRaiseIRQ = %v after writing %d to RegIRQEnable", got, step.enable)
				}
				r.ring(now)
				now = r.drain() + us
				if len(r.host.IRQs) != step.wantIRQs {
					t.Fatalf("%d interrupts with RegIRQEnable = %d, want %d", len(r.host.IRQs), step.enable, step.wantIRQs)
				}
			}
		}},

		{"advance granularity cannot change a run", func(t *testing.T, _ *rig) {
			// Two overlapping tasks, then eight rung at one instant: the
			// second load keeps every server of a multi-server unit busy
			// while items wait (protoacc's two object fetchers and four
			// field units).
			for _, tasks := range []int{2, 8} {
				start := func() *rig {
					r := newRig(t, km)
					r.write(0, devkit.RegIRQEnable, 1)
					for range tasks {
						r.ring(us)
					}
					return r
				}
				r := start()
				r.drain()
				fine := start()
				for at := us; ; at += vclock.Time(vclock.Nanosecond) {
					if _, busy := fine.dev.NextEvent(); !busy {
						break
					}
					if at > 10_000*us {
						t.Fatal("device did not quiesce")
					}
					fine.dev.Advance(at)
				}
				if len(r.host.IRQs) != tasks || !slices.Equal(r.host.IRQs, fine.host.IRQs) || !slices.Equal(r.host.DMAs, fine.host.DMAs) || r.dev.Stats() != fine.dev.Stats() {
					t.Fatalf("%d tasks advanced per event: IRQs %v, DMAs %v, stats %+v\nadvanced per ns: IRQs %v, DMAs %v, stats %+v",
						tasks, r.host.IRQs, r.host.DMAs, r.dev.Stats(), fine.host.IRQs, fine.host.DMAs, fine.dev.Stats())
				}
			}
		}},

		{"unknown offsets read 0 and ignore writes", func(t *testing.T, r *rig) {
			for _, off := range []mem.Addr{0x40, 0xffc} {
				r.write(0, off, 7)
				if v := r.read(0, off); v != 0 {
					t.Fatalf("offset %#x reads %d", off, v)
				}
			}
			if _, busy := r.dev.NextEvent(); busy || r.dev.Stats() != (accel.DeviceStats{}) || r.dev.MayRaiseIRQ() {
				t.Fatalf("writes to unknown offsets had an effect: stats %+v", r.dev.Stats())
			}
		}},
	}
	if km.Alone != nil {
		cases = append(cases, kitCase{"a task rung alone completes when the timing oracle says", func(t *testing.T, r *rig) {
			r.write(0, devkit.RegIRQEnable, 1)
			desc := km.Stage(r.host.Mem, 0)
			want := km.Alone(r.host, desc, us)
			r.write(us, devkit.RegDoorbell, uint32(desc))
			r.drain()
			if !slices.Equal(r.host.IRQs, []vclock.Time{want}) {
				t.Fatalf("completions at %v, want one at %v", r.host.IRQs, want)
			}
		}})
	}
	for _, tc := range cases {
		t.Run(km.Name+"/"+tc.name, func(t *testing.T) { tc.run(t, newRig(t, km)) })
	}
}

// KitPairConformance checks that a model's DSim and RTL devices report
// the same task lifecycle for the same tasks, and differ in HostSteps
// the way the result bytes pin: the DSim track counts its steps, the RTL
// model reports none. RTL stays at 0 although it steps every busy cycle,
// because the benchmark's golden digests hash DeviceStats.
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
