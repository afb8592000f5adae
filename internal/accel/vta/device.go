package vta

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Register map.
const (
	RegDoorbell  = 0x00
	RegStatus    = 0x04
	RegBusy      = 0x08
	RegIRQEnable = 0x0c
)

// IRQVector is the completion interrupt vector.
const IRQVector = 11

// Device is the DSim model of VTA. Its performance track is the
// compiled form of the accelerator's LPN: the three module timelines
// (load, compute, store) advance op by op, joining on dependency-queue
// tokens exactly as the LPN transitions would — the paper's lpnlang
// similarly compiles LPNs into specialized C++ simulators (§4.1).
type Device struct {
	name string
	clk  vclock.Hz
	host accel.Host
	now  vclock.Time

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	mods [3]modState // load, compute, store

	// Dependency queues carry completion timestamps.
	ld2cmp, cmp2ld, cmp2st, st2cmp queue[vclock.Time]

	nextTask int64
	stats    accel.DeviceStats
	busyAt   vclock.Time
}

type modState struct {
	ops  queue[planOp]
	free vclock.Time // module available from
}

// NewDevice builds the DSim VTA at clock clk.
func NewDevice(clk vclock.Hz) *Device {
	return &Device{name: "vta", clk: clk}
}

// SetHost wires the device.
func (d *Device) SetHost(h accel.Host) { d.host = h }

// Name implements accel.Device.
func (d *Device) Name() string { return d.name }

// Stats implements accel.Device.
func (d *Device) Stats() accel.DeviceStats { return d.stats }

// Now returns the device-local time.
func (d *Device) Now() vclock.Time { return d.now }

// RegRead implements accel.Device.
func (d *Device) RegRead(at vclock.Time, off mem.Addr) uint32 {
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
func (d *Device) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	switch off {
	case RegDoorbell:
		d.startTask(at, mem.Addr(v))
	case RegIRQEnable:
		d.irqEnabled = v != 0
	}
}

func (d *Device) startTask(at vclock.Time, descAddr mem.Addr) {
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

	// Timed fetch of descriptor + instruction stream; all of the task's
	// ops start after the fetch response.
	d.host.DMA(at, mem.Read, descAddr, DescSize)
	fetchDone := d.host.DMA(at, mem.Read, desc.Prog, int(desc.Count)*InstrSize)
	d.stats.DMABytes += int64(DescSize + int(desc.Count)*InstrSize)

	plan, err := cachedPlan(d.host, desc)
	if err != nil {
		panic("vta: " + err.Error())
	}
	// Copies of the master ops are stamped with this task's id and
	// gated on the instruction fetch; the shared master stays untouched.
	appendStamped(&d.mods[0].ops, plan.loads, task, fetchDone)
	appendStamped(&d.mods[1].ops, plan.computes, task, fetchDone)
	appendStamped(&d.mods[2].ops, plan.stores, task, fetchDone)
}

// depsReady returns the earliest time the op's dependency pops are
// satisfied, or (Never, false) if a required token has not been pushed.
func (d *Device) depsReady(module int, op *planOp) (vclock.Time, bool) {
	t := op.minStart
	need := func(q *queue[vclock.Time]) bool {
		if q.len() == 0 {
			return false
		}
		if pushed := *q.front(); pushed > t {
			t = pushed
		}
		return true
	}
	i := &op.instr
	switch module {
	case 0: // load: next = compute
		if i.PopNext && !need(&d.cmp2ld) {
			return vclock.Never, false
		}
	case 1: // compute: prev = load, next = store
		if i.PopPrev && !need(&d.ld2cmp) {
			return vclock.Never, false
		}
		if i.PopNext && !need(&d.st2cmp) {
			return vclock.Never, false
		}
	case 2: // store: prev = compute
		if i.PopPrev && !need(&d.cmp2st) {
			return vclock.Never, false
		}
	}
	return t, true
}

// nextStart computes when module m's next op could start.
func (d *Device) nextStart(m int) (vclock.Time, bool) {
	ms := &d.mods[m]
	if ms.ops.len() == 0 {
		return vclock.Never, false
	}
	t, ok := d.depsReady(m, ms.ops.front())
	if !ok {
		return vclock.Never, false
	}
	if ms.free > t {
		t = ms.free
	}
	return t, true
}

// execute runs module m's next op starting at time start.
func (d *Device) execute(m int, start vclock.Time) {
	ms := &d.mods[m]
	op := *ms.ops.front()
	ms.ops.pop()
	i := &op.instr

	// Consume dependency tokens.
	switch m {
	case 0:
		if i.PopNext {
			d.cmp2ld.pop()
		}
	case 1:
		if i.PopPrev {
			d.ld2cmp.pop()
		}
		if i.PopNext {
			d.st2cmp.pop()
		}
	case 2:
		if i.PopPrev {
			d.cmp2st.pop()
		}
	}

	finish := start.Add(d.clk.CyclesDur(op.cycles))
	for _, dma := range op.dmas {
		comp := d.host.DMA(start, dma.kind, dma.addr, dma.size)
		d.stats.DMABytes += int64(dma.size)
		if dma.kind == mem.Write && dma.data != nil {
			d.host.ZeroCostWrite(dma.addr, dma.data)
		}
		if comp > finish {
			finish = comp
		}
	}
	ms.free = finish
	d.stats.HostSteps++

	// Push dependency tokens.
	switch m {
	case 0:
		if i.PushNext {
			d.ld2cmp.push(finish)
		}
	case 1:
		if i.PushPrev {
			d.cmp2ld.push(finish)
		}
		if i.PushNext {
			d.cmp2st.push(finish)
		}
	case 2:
		if i.PushPrev {
			d.st2cmp.push(finish)
		}
	}

	if op.finish {
		d.completed++
		d.inFlight--
		d.stats.TasksCompleted++
		if d.inFlight == 0 {
			d.stats.BusyTime += finish.Sub(d.busyAt)
		}
		if d.irqEnabled {
			d.host.RaiseIRQ(finish, IRQVector)
		}
	}
}

// Advance implements accel.Device: run module ops whose start times fall
// at or before t, in global start-time order.
func (d *Device) Advance(t vclock.Time) {
	if t > d.now {
		d.now = t
	}
	for {
		best, bestM := vclock.Never, -1
		for m := 0; m < 3; m++ {
			if s, ok := d.nextStart(m); ok && s < best {
				best, bestM = s, m
			}
		}
		if bestM < 0 || best > t {
			return
		}
		d.execute(bestM, best)
	}
}

// NextEvent implements accel.Device.
func (d *Device) NextEvent() (vclock.Time, bool) {
	best, any := vclock.Never, false
	for m := 0; m < 3; m++ {
		if s, ok := d.nextStart(m); ok && s < best {
			best, any = s, true
		}
	}
	return best, any
}

// MayRaiseIRQ reports whether an Advance may deliver an interrupt to the
// host (parsim's async-grant eligibility predicate): only once the
// driver has enabled interrupts via the IRQ-enable register.
func (d *Device) MayRaiseIRQ() bool { return d.irqEnabled }
