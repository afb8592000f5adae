package jpeg

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the JPEG decoder — the stand-in
// for Verilator running the core's Verilog (the paper's baseline
// accelerator simulator). While the accelerator is busy, every unit
// event is an explicit simulation step, which is why this model is
// orders of magnitude more expensive to run than the LPN-based DSim
// model, while being externally indistinguishable from it: same register
// semantics, same DMA sequence, same bytes in memory.
type RTLDevice struct {
	devkit.Bank
	devkit.Clock

	units [3]unit

	// DecodeErrors counts malformed bitstreams.
	DecodeErrors int64
}

// The pipeline's units, in row order.
const (
	fetchUnit = iota
	huffUnit
	idctUnit // IDCT + store
)

// unit is one pipeline unit: the rows waiting for it and the row it is
// busy with until a given cycle.
type unit struct {
	q         devkit.Queue[row]
	cur       row
	active    bool
	busyUntil int64
}

// finish returns the unit's row if it completes at cycle, freeing the
// unit; the pointer is good until the unit's next take.
func (u *unit) finish(cycle int64) *row {
	if !u.active || cycle < u.busyUntil {
		return nil
	}
	u.active = false
	return &u.cur
}

// take moves the next waiting row into the unit if it is idle.
func (u *unit) take() *row {
	if u.active || u.q.Len() == 0 {
		return nil
	}
	u.cur, u.active = *u.q.Front(), true
	u.q.Pop()
	return &u.cur
}

// NewRTLDevice builds the cycle-level decoder model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{}
	d.Bank.Init("jpeg-rtl", IRQVector, d)
	d.Clock.Init(clk, d)
	return d
}

// Busy implements devkit.Pipeline.
func (d *RTLDevice) Busy() bool {
	for i := range d.units {
		if d.units[i].active || d.units[i].q.Len() > 0 {
			return true
		}
	}
	return false
}

// NextStep implements devkit.Pipeline: the earliest unit completion, or
// now if an idle unit can accept new work.
func (d *RTLDevice) NextStep() int64 {
	next := int64(1 << 62)
	for i := range d.units {
		if u := &d.units[i]; u.active {
			next = min(next, u.busyUntil)
		} else if u.q.Len() > 0 {
			next = min(next, d.Cycle)
		}
	}
	return next
}

// NextEvent implements accel.Device: the next externally visible action
// happens at the next unit event.
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.Busy() {
		return vclock.Never, false
	}
	return d.TimeAt(d.NextStep()), true
}

// Step implements devkit.Pipeline: one clock cycle of the pipeline.
func (d *RTLDevice) Step() {
	now := d.TimeAt(d.Cycle)
	fetch, huff, idct := &d.units[fetchUnit], &d.units[huffUnit], &d.units[idctUnit]

	// IDCT + store unit: the output DMA issues at completion.
	if r := idct.finish(d.Cycle); r != nil {
		done := d.DMA(now, mem.Write, r.dst, len(r.outData), r.outData)
		if r.last {
			d.Complete(done)
		}
	}
	if r := idct.take(); r != nil {
		idct.busyUntil = d.Cycle + r.blocks*idctCyclesBlock/idctUnits + r.outBytes/busBytesPerCycle
	}

	// Huffman unit.
	if r := huff.finish(d.Cycle); r != nil {
		idct.q.Push(*r)
	}
	if r := huff.take(); r != nil {
		huff.busyUntil = d.Cycle + r.bits/huffBitsPerCycle
	}

	// Fetch unit.
	if r := fetch.finish(d.Cycle); r != nil {
		huff.q.Push(*r)
	}
	if r := fetch.take(); r != nil {
		comp := d.DMA(now, mem.Read, r.src, int(r.inBytes), nil)
		fetch.busyUntil = max(d.Cycle+4+r.inBytes/busBytesPerCycle, d.CyclesAt(comp))
	}
}

// Doorbell implements devkit.Model: it decodes the task functionally (an
// RTL simulator computes the same results through its gates; we reuse
// the functional codec) and enqueues its rows into the cycle-stepped
// pipeline.
func (d *RTLDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	d.Start(at)

	// The descriptor fetch is timed but, unlike the DSim model's, not
	// counted in DMABytes (devices.golden pins both).
	var descBytes [DescSize]byte
	d.Host.DMA(at, mem.Read, descAddr, DescSize)
	d.Host.ZeroCostRead(descAddr, descBytes[:])

	rows, ok := taskRows(d.Host, decodeDesc(descBytes[:]))
	if !ok {
		d.DecodeErrors++
	}
	d.units[fetchUnit].q.Push(rows...)
}
