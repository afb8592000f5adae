package jpeg

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the JPEG decoder — the stand-in
// for Verilator running the core's Verilog (the paper's baseline
// accelerator simulator). While the accelerator is busy, every clock
// cycle is an explicit simulation step, which is why this model costs
// more to run than the LPN-based DSim model, while being externally
// indistinguishable from it: same register semantics, same DMA
// sequence, same bytes in memory.
type RTLDevice struct {
	devkit.Bank
	devkit.Clock

	// The pipeline's units, in row order; idct also stores the row.
	fetch, huff, idct devkit.Unit[row]
}

// NewRTLDevice builds the cycle-level decoder model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{}
	d.Bank.Init("jpeg-rtl", d)
	d.Clock.Init(clk, d)
	for _, u := range []*devkit.Unit[row]{&d.fetch, &d.huff, &d.idct} {
		u.Init(&d.Clock, 1)
	}
	return d
}

// Step implements devkit.Pipeline: one clock cycle of the pipeline.
func (d *RTLDevice) Step() {
	now := d.TimeAt(d.Cycle)

	// IDCT + store unit: the output DMA issues at completion.
	if r := d.idct.Done(0); r != nil {
		done := d.DMA(now, mem.Write, r.dst, len(r.outData), r.outData)
		if r.last {
			d.Complete(done)
		}
	}
	if r := d.idct.Next(0); r != nil {
		d.idct.Start(0, d.Cycle+r.idct+r.store)
	}

	// Huffman unit.
	if r := d.huff.Done(0); r != nil {
		d.idct.Push(*r)
	}
	if r := d.huff.Next(0); r != nil {
		d.huff.Start(0, d.Cycle+r.huff)
	}

	// Fetch unit.
	if r := d.fetch.Done(0); r != nil {
		d.huff.Push(*r)
	}
	if r := d.fetch.Next(0); r != nil {
		comp := d.DMA(now, mem.Read, r.src, int(r.inBytes), nil)
		d.fetch.Start(0, max(d.Cycle+r.fetch, d.CyclesAt(comp)))
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
	d.Host.DMA(at, mem.Read, descAddr, DescSize)
	d.fetch.Push(taskRows(d.Host, descAddr)...)
}
