package vta

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level VTA model — the Verilator stand-in.
// Module semantics and the DMA/result sequence match the DSim model
// exactly; the difference is that every busy clock cycle is an explicit
// simulation step.
type RTLDevice struct {
	name string
	clk  vclock.Hz
	host accel.Host

	cycle int64

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	mods [3]rtlMod
	// Dependency queues: counts of available tokens (RTL queues carry no
	// timestamps; availability is implicit in cycle order).
	ld2cmp, cmp2ld, cmp2st, st2cmp int

	nextTask int64
	stats    accel.DeviceStats
	busyAt   vclock.Time
}

type rtlMod struct {
	ops       queue[planOp]
	cur       *planOp
	busyUntil int64
}

// NewRTLDevice builds the cycle-level VTA model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	return &RTLDevice{name: "vta-rtl", clk: clk}
}

// SetHost wires the device.
func (d *RTLDevice) SetHost(h accel.Host) { d.host = h }

// Name implements accel.Device.
func (d *RTLDevice) Name() string { return d.name }

// Stats implements accel.Device.
func (d *RTLDevice) Stats() accel.DeviceStats { return d.stats }

func (d *RTLDevice) timeAt(c int64) vclock.Time   { return vclock.Time(0).Add(d.clk.CyclesDur(c)) }
func (d *RTLDevice) cyclesAt(t vclock.Time) int64 { return d.clk.Cycles(t.Sub(0)) }

func (d *RTLDevice) busy() bool {
	for m := range d.mods {
		if d.mods[m].cur != nil || d.mods[m].ops.len() > 0 {
			return true
		}
	}
	return false
}

// RegRead implements accel.Device.
func (d *RTLDevice) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.Advance(at)
	switch off {
	case RegStatus:
		return d.completed
	case RegBusy:
		return d.inFlight
	default:
		return 0
	}
}

// RegWrite implements accel.Device.
func (d *RTLDevice) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	switch off {
	case RegDoorbell:
		d.startTask(at, mem.Addr(v))
	case RegIRQEnable:
		d.irqEnabled = v != 0
	}
}

func (d *RTLDevice) startTask(at vclock.Time, descAddr mem.Addr) {
	d.stats.TasksStarted++
	if d.inFlight == 0 {
		d.busyAt = at
	}
	d.inFlight++
	task := d.nextTask
	d.nextTask++

	var descB [DescSize]byte
	d.host.ZeroCostRead(descAddr, descB[:])
	desc := decodeDesc(descB[:])
	d.host.DMA(at, mem.Read, descAddr, DescSize)
	fetchDone := d.host.DMA(at, mem.Read, desc.Prog, int(desc.Count)*InstrSize)
	d.stats.DMABytes += int64(DescSize + int(desc.Count)*InstrSize)

	plan, err := cachedPlan(d.host, desc)
	if err != nil {
		panic("vta-rtl: " + err.Error())
	}
	// Copies of the master ops are stamped with this task's id and
	// gated on the instruction fetch; the shared master stays untouched.
	appendStamped(&d.mods[0].ops, plan.loads, task, fetchDone)
	appendStamped(&d.mods[1].ops, plan.computes, task, fetchDone)
	appendStamped(&d.mods[2].ops, plan.stores, task, fetchDone)
	if c := d.cyclesAt(at); d.cycle < c {
		d.cycle = c
	}
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

// step advances every module one clock cycle.
func (d *RTLDevice) step() {
	now := d.timeAt(d.cycle)
	for m := range d.mods {
		ms := &d.mods[m]
		// Complete.
		if ms.cur != nil && d.cycle >= ms.busyUntil {
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
				done := d.timeAt(d.cycle)
				d.completed++
				d.inFlight--
				d.stats.TasksCompleted++
				if d.inFlight == 0 {
					d.stats.BusyTime += done.Sub(d.busyAt)
				}
				if d.irqEnabled {
					d.host.RaiseIRQ(done, IRQVector)
				}
			}
		}
		// Issue.
		if ms.cur == nil && ms.ops.len() > 0 {
			op := ms.ops.front()
			if d.cyclesAt(op.minStart) > d.cycle || !d.depsAvailable(m, op) {
				continue
			}
			cur := *op
			ms.ops.pop()
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
			busy := d.cycle + cur.cycles
			for _, dma := range cur.dmas {
				comp := d.host.DMA(now, dma.kind, dma.addr, dma.size)
				d.stats.DMABytes += int64(dma.size)
				if dma.kind == mem.Write && dma.data != nil {
					d.host.ZeroCostWrite(dma.addr, dma.data)
				}
				if c := d.cyclesAt(comp); c > busy {
					busy = c
				}
			}
			ms.busyUntil = busy
			ms.cur = &cur
		}
	}
}

// Advance implements accel.Device.
//
// Between module events step() is a pure no-op: completions fire at a
// module's busyUntil, issues need an idle module whose head op is past
// minStart with its dependency tokens available, and tokens only change
// at those same events. Jumping straight to the nearest such cycle is
// therefore cycle-exact and skips the dead stepping in between.
func (d *RTLDevice) Advance(t vclock.Time) {
	target := d.cyclesAt(t)
	for d.cycle <= target {
		if !d.busy() {
			d.cycle = target + 1
			return
		}
		next := int64(1 << 62)
		for m := range d.mods {
			ms := &d.mods[m]
			if ms.cur != nil {
				if ms.busyUntil < next {
					next = ms.busyUntil
				}
			} else if ms.ops.len() > 0 {
				op := ms.ops.front()
				if !d.depsAvailable(m, op) {
					continue // unblocks only at another module's completion
				}
				if c := d.cyclesAt(op.minStart); c < next {
					next = c
				}
			}
		}
		if next > d.cycle {
			if next > target {
				d.cycle = target + 1
				return
			}
			d.cycle = next
		}
		d.step()
		d.cycle++
	}
}

// NextEvent implements accel.Device.
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.busy() {
		return vclock.Never, false
	}
	next := int64(1 << 62)
	for m := range d.mods {
		ms := &d.mods[m]
		if ms.cur != nil {
			if ms.busyUntil < next {
				next = ms.busyUntil
			}
		} else if ms.ops.len() > 0 {
			c := d.cyclesAt(ms.ops.front().minStart)
			if c < d.cycle {
				c = d.cycle
			}
			if c < next {
				next = c
			}
		}
	}
	if next < d.cycle {
		next = d.cycle
	}
	return d.timeAt(next), true
}

// MayRaiseIRQ reports whether an Advance may deliver an interrupt to the
// host (parsim's async-grant eligibility predicate): only once the
// driver has enabled interrupts via the IRQ-enable register.
func (d *RTLDevice) MayRaiseIRQ() bool { return d.irqEnabled }
