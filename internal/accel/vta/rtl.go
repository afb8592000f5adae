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

	// The load, compute and store modules, one server each.
	mods [3]devkit.Unit[planOp]
	// Dependency queues: counts of available tokens (RTL queues carry no
	// timestamps; availability is implicit in cycle order).
	ld2cmp, cmp2ld, cmp2st, st2cmp int
}

// NewRTLDevice builds the cycle-level VTA model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{}
	d.Bank.Init("vta-rtl", d)
	d.Clock.Init(clk, d)
	for m := range d.mods {
		d.mods[m].Init(&d.Clock, 1)
	}
	return d
}

// Doorbell implements devkit.Model: no op of the task starts before its
// instruction fetch completes.
func (d *RTLDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	plan, fetchDone := startTask(&d.Bank, at, descAddr)
	fetched := d.CyclesAt(fetchDone)
	d.mods[0].PushGated(fetched, plan.loads...)
	d.mods[1].PushGated(fetched, plan.computes...)
	d.mods[2].PushGated(fetched, plan.stores...)
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
		u := &d.mods[m]
		if op := u.Done(0); op != nil {
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
		op := u.Next(0)
		if op == nil || !d.depsAvailable(m, op) {
			continue
		}
		i := &op.instr
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
		busy := d.Cycle + op.cycles
		for _, dma := range op.dmas {
			busy = max(busy, d.CyclesAt(d.DMA(now, dma.kind, dma.addr, dma.size, dma.data)))
		}
		u.Start(0, busy)
	}
}
