package devkit

import (
	"nexsim/internal/app"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Driver is the software side of a kit device, written against app.Env
// so the same code runs unmodified under every host engine. Per the
// paper (§3.2), descriptor writes go through the task buffer
// (Env.TaskWrite: a trap into the host engine, unless NEX's tick mode
// batches them) and doorbells through MMIO. A device's driver embeds it
// and adds the call that encodes its descriptor.
type Driver struct {
	MMIOBase mem.Addr
	TaskBuf  mem.Addr // base of the descriptor ring
	Slots    int      // descriptor ring size

	// OnWait, when set, runs before each wait (protoacc launches its
	// partial batch there).
	OnWait func(app.Env)

	descSize  int
	slot      int
	submitted uint32
}

// NewDriver builds a driver over a device's MMIO window and a task
// buffer region holding slots descriptors (default 16) of descSize
// bytes.
func NewDriver(mmio, taskBuf mem.Addr, slots, descSize int) Driver {
	if slots <= 0 {
		slots = 16
	}
	return Driver{MMIOBase: mmio, TaskBuf: taskBuf, Slots: slots, descSize: descSize}
}

// EnableIRQ turns on completion interrupts.
func (dr *Driver) EnableIRQ(e app.Env) {
	e.MMIOWrite(dr.MMIOBase+RegIRQEnable, 1)
}

// Post writes a descriptor into the next ring slot, counts the task as
// submitted and returns the slot's address. It rings nothing.
func (dr *Driver) Post(e app.Env, desc []byte) mem.Addr {
	addr := dr.TaskBuf + mem.Addr(dr.slot*dr.descSize)
	dr.slot = (dr.slot + 1) % dr.Slots
	e.TaskWrite(addr, desc)
	dr.submitted++
	return addr
}

// Doorbell launches the descriptor at addr. The doorbell MMIO is the
// synchronization point that flushes the descriptor write: in NEX tick
// mode the write does not trap, and the doorbell is the next trap.
func (dr *Driver) Doorbell(e app.Env, addr mem.Addr) {
	e.MMIOWrite(dr.MMIOBase+RegDoorbell, uint32(addr))
}

// Completed reads the device's completion counter.
func (dr *Driver) Completed(e app.Env) uint32 {
	return e.MMIORead(dr.MMIOBase + RegStatus)
}

// WaitAll polls the status register until every submitted task has
// completed, sleeping poll between checks; poll <= 0 spins on the
// register (the common driver behaviour), each read costing the MMIO
// round trip.
func (dr *Driver) WaitAll(e app.Env, poll vclock.Duration) {
	dr.beforeWait(e)
	for dr.Completed(e) < dr.submitted {
		if poll > 0 {
			e.Sleep(poll)
		}
	}
}

// WaitAllIRQ blocks on the device's completion interrupt until every
// submitted task has completed. The device must have IRQs enabled.
func (dr *Driver) WaitAllIRQ(e app.Env) {
	dr.beforeWait(e)
	for dr.Completed(e) < dr.submitted {
		e.WaitIRQ(dr.MMIOBase)
	}
}

func (dr *Driver) beforeWait(e app.Env) {
	if dr.OnWait != nil {
		dr.OnWait(e)
	}
}
