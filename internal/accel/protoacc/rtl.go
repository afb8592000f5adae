package protoacc

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the Protoacc serializer — the
// stand-in for Verilator running its RTL. Every busy clock cycle is an
// explicit simulation step; register semantics, DMA sequence and output
// bytes are identical to the DSim model.
type RTLDevice struct {
	devkit.Bank
	devkit.Clock
	frontend

	// The units. objs holds the nodeTab indices of the blocks fetchable
	// now (pointer chasing releases children), stores the tasks whose
	// output is ready to write.
	objs   devkit.Unit[int]
	fields devkit.Unit[fieldRef]
	stores devkit.Unit[int64]
}

// fieldRef names one field of a nodeTab block.
type fieldRef struct{ node, field int }

// NewRTLDevice builds the cycle-level serializer model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{frontend: newFrontend()}
	d.Bank.Init("protoacc-rtl", d)
	d.Clock.Init(clk, d)
	d.objs.Init(&d.Clock, objFetchUnits)
	d.fields.Init(&d.Clock, fieldUnits)
	d.stores.Init(&d.Clock, 1)
	return d
}

// Step implements devkit.Pipeline: all units advance one clock cycle.
func (d *RTLDevice) Step() {
	now := d.TimeAt(d.Cycle)

	// Store unit.
	if task := d.stores.Done(0); task != nil {
		out := d.outTab[*task]
		delete(d.outTab, *task)
		d.finish(&d.Bank, *task, d.DMA(now, mem.Write, out.addr, len(out.data), out.data))
	}
	if task := d.stores.Next(0); task != nil {
		d.stores.Start(0, d.Cycle+d.outTab[*task].cycles)
	}

	// Field units.
	for i := 0; i < fieldUnits && d.fields.Active(); i++ {
		if f := d.fields.Done(i); f != nil {
			d.storeWhenDone(d.nodeTab[f.node].task)
		}
		if f := d.fields.Next(i); f != nil {
			fi := &d.nodeTab[f.node].fields[f.field]
			busy := d.Cycle + fi.cycles
			if fi.dataBytes > 0 {
				comp := d.DMA(now, mem.Read, fi.dataAddr, int(fi.dataBytes), nil)
				busy = max(busy, d.CyclesAt(comp))
			}
			d.fields.Start(i, busy)
		}
	}

	// Object fetch units: completing a block releases its fields and
	// its submessage children (pointer chasing).
	for i := 0; i < objFetchUnits && d.objs.Active(); i++ {
		if n := d.objs.Done(i); n != nil {
			rec := &d.nodeTab[*n]
			for f := range rec.fields {
				d.fields.Push(fieldRef{*n, f})
			}
			d.objs.Push(rec.children...)
			d.storeWhenDone(rec.task)
		}
		if n := d.objs.Next(i); n != nil {
			rec := &d.nodeTab[*n]
			comp := d.DMA(now, mem.Read, rec.addr, rec.size, nil)
			d.objs.Start(i, max(d.Cycle+descFetchCycles, d.CyclesAt(comp)))
		}
	}
}

// storeWhenDone counts one node or field of task done; after its last
// the output store is queued.
func (d *RTLDevice) storeWhenDone(task int64) {
	if d.workDone(task) {
		d.stores.Push(task)
	}
}

// WriteReg implements devkit.ExtraRegs: the descriptor ring.
func (d *RTLDevice) WriteReg(at vclock.Time, off mem.Addr, v uint32) {
	d.ring.write(off, v, func(desc mem.Addr) { d.Doorbell(at, desc) })
}

// Doorbell implements devkit.Model.
func (d *RTLDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	_, first := d.begin(&d.Bank, at, descAddr)
	d.objs.Push(first)
}
