package vta

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// IRQVector is the completion interrupt vector.
const IRQVector = 11

// Device is the DSim model of VTA. Its performance track is the
// compiled form of the accelerator's LPN: the three module timelines
// (load, compute, store) advance op by op, joining on dependency-queue
// tokens exactly as the LPN transitions would — the paper's lpnlang
// similarly compiles LPNs into specialized C++ simulators (§4.1).
type Device struct {
	devkit.Bank
	clk vclock.Hz
	now vclock.Time

	mods [3]modState // load, compute, store

	// Dependency queues carry completion timestamps.
	ld2cmp, cmp2ld, cmp2st, st2cmp devkit.Queue[vclock.Time]
}

type modState struct {
	ops  devkit.Queue[planOp]
	free vclock.Time // module available from
}

// NewDevice builds the DSim VTA at clock clk.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{clk: clk}
	d.Init("vta", IRQVector, d)
	return d
}

// Now returns the device-local time.
func (d *Device) Now() vclock.Time { return d.now }

// Doorbell implements devkit.Model.
func (d *Device) Doorbell(at vclock.Time, descAddr mem.Addr) {
	startTask(&d.Bank, at, descAddr, &d.mods[0].ops, &d.mods[1].ops, &d.mods[2].ops)
}

// startTask is a doorbell on either model: the timed fetch of the
// descriptor and the instruction stream, then the memoized master plan's
// ops appended to the three module queues, each copy gated on the fetch
// response.
func startTask(b *devkit.Bank, at vclock.Time, descAddr mem.Addr, loads, computes, stores *devkit.Queue[planOp]) {
	b.Start(at)
	var descB [DescSize]byte
	b.Host.ZeroCostRead(descAddr, descB[:])
	desc := decodeDesc(descB[:])

	b.DMA(at, mem.Read, descAddr, DescSize, nil)
	fetchDone := b.DMA(at, mem.Read, desc.Prog, int(desc.Count)*InstrSize, nil)

	plan, err := cachedPlan(b.Host, desc)
	if err != nil {
		panic(b.Name() + ": " + err.Error())
	}
	appendGated(loads, plan.loads, fetchDone)
	appendGated(computes, plan.computes, fetchDone)
	appendGated(stores, plan.stores, fetchDone)
}

// depsReady returns the earliest time the op's dependency pops are
// satisfied, or (Never, false) if a required token has not been pushed.
func (d *Device) depsReady(module int, op *planOp) (vclock.Time, bool) {
	t := op.minStart
	need := func(q *devkit.Queue[vclock.Time]) bool {
		if q.Len() == 0 {
			return false
		}
		if pushed := *q.Front(); pushed > t {
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
	if ms.ops.Len() == 0 {
		return vclock.Never, false
	}
	t, ok := d.depsReady(m, ms.ops.Front())
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
	op := *ms.ops.Front()
	ms.ops.Pop()
	i := &op.instr

	// Consume dependency tokens.
	switch m {
	case 0:
		if i.PopNext {
			d.cmp2ld.Pop()
		}
	case 1:
		if i.PopPrev {
			d.ld2cmp.Pop()
		}
		if i.PopNext {
			d.st2cmp.Pop()
		}
	case 2:
		if i.PopPrev {
			d.cmp2st.Pop()
		}
	}

	finish := start.Add(d.clk.CyclesDur(op.cycles))
	for _, dma := range op.dmas {
		finish = max(finish, d.DMA(start, dma.kind, dma.addr, dma.size, dma.data))
	}
	ms.free = finish
	d.CountSteps(1)

	// Push dependency tokens.
	switch m {
	case 0:
		if i.PushNext {
			d.ld2cmp.Push(finish)
		}
	case 1:
		if i.PushPrev {
			d.cmp2ld.Push(finish)
		}
		if i.PushNext {
			d.cmp2st.Push(finish)
		}
	case 2:
		if i.PushPrev {
			d.st2cmp.Push(finish)
		}
	}

	if op.finish {
		d.Complete(finish)
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
