package vta

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level VTA model — the Verilator stand-in.
// Module semantics and the DMA/result sequence match the DSim model
// exactly; the difference is that every busy clock cycle is an explicit
// simulation step.
type RTLDevice struct {
	devkit.Bank
	devkit.Clock

	mods [3]rtlMod
	// Dependency queues: counts of available tokens (RTL queues carry no
	// timestamps; availability is implicit in cycle order).
	ld2cmp, cmp2ld, cmp2st, st2cmp int
}

type rtlMod struct {
	ops       devkit.Queue[planOp]
	cur       *planOp
	busyUntil int64
}

// NewRTLDevice builds the cycle-level VTA model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{}
	d.Bank.Init("vta-rtl", IRQVector, d)
	d.Clock.Init(clk, d)
	return d
}

// Busy implements devkit.Pipeline.
func (d *RTLDevice) Busy() bool {
	for m := range d.mods {
		if d.mods[m].cur != nil || d.mods[m].ops.Len() > 0 {
			return true
		}
	}
	return false
}

// Doorbell implements devkit.Model.
func (d *RTLDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	plan, fetchDone := startTask(&d.Bank, at, descAddr)
	appendGated(&d.mods[0].ops, plan.loads, fetchDone)
	appendGated(&d.mods[1].ops, plan.computes, fetchDone)
	appendGated(&d.mods[2].ops, plan.stores, fetchDone)
}

// depsAvailable reports whether module m's next op can pop its tokens.
func (d *RTLDevice) depsAvailable(m int, op *planOp) bool {
	i := &op.instr
	switch m {
	case 0:
		return !i.PopNext || d.cmp2ld > 0
	case 1:
		if i.PopPrev && d.ld2cmp == 0 {
			return false
		}
		if i.PopNext && d.st2cmp == 0 {
			return false
		}
		return true
	default:
		return !i.PopPrev || d.cmp2st > 0
	}
}

// Step implements devkit.Pipeline: every module advances one clock
// cycle.
func (d *RTLDevice) Step() {
	now := d.TimeAt(d.Cycle)
	for m := range d.mods {
		ms := &d.mods[m]
		// Complete.
		if ms.cur != nil && d.Cycle >= ms.busyUntil {
			op := ms.cur
			ms.cur = nil
			i := &op.instr
			switch m {
			case 0:
				if i.PushNext {
					d.ld2cmp++
				}
			case 1:
				if i.PushPrev {
					d.cmp2ld++
				}
				if i.PushNext {
					d.cmp2st++
				}
			case 2:
				if i.PushPrev {
					d.st2cmp++
				}
			}
			if op.finish {
				d.Complete(now)
			}
		}
		// Issue.
		if ms.cur == nil && ms.ops.Len() > 0 {
			op := ms.ops.Front()
			if d.CyclesAt(op.minStart) > d.Cycle || !d.depsAvailable(m, op) {
				continue
			}
			cur := *op
			ms.ops.Pop()
			i := &cur.instr
			switch m {
			case 0:
				if i.PopNext {
					d.cmp2ld--
				}
			case 1:
				if i.PopPrev {
					d.ld2cmp--
				}
				if i.PopNext {
					d.st2cmp--
				}
			case 2:
				if i.PopPrev {
					d.cmp2st--
				}
			}
			busy := d.Cycle + cur.cycles
			for _, dma := range cur.dmas {
				busy = max(busy, d.CyclesAt(d.DMA(now, dma.kind, dma.addr, dma.size, dma.data)))
			}
			ms.busyUntil = busy
			ms.cur = &cur
		}
	}
}

// NextEvent implements accel.Device: the next module event — a
// completion at a module's busyUntil, or an idle module's head op
// reaching minStart. It does not ask whether that op's dependency tokens
// are there. Hosts ask it only for an interrupt-enabled device or when
// every thread is parked; acceltest.KitConformance pins the answer.
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.Busy() {
		return vclock.Never, false
	}
	next := int64(1 << 62)
	for m := range d.mods {
		ms := &d.mods[m]
		if ms.cur != nil {
			next = min(next, ms.busyUntil)
		} else if ms.ops.Len() > 0 {
			next = min(next, d.CyclesAt(ms.ops.Front().minStart))
		}
	}
	return d.TimeAt(max(next, d.Cycle)), true
}
