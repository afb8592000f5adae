package protoacc

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/app"
	"nexsim/internal/mem"
)

// Driver is the asynchronous Protoacc software driver: the CPU
// preprocesses and launches a series of serialization tasks, then waits
// for the batch to finish (paper §6.1: "Protoacc is used asynchronously
// with the CPU"). It includes the physical-address translation layer the
// paper added — our Store layout already uses physical addresses, so the
// translation is the Store step itself.
type Driver struct {
	devkit.Driver

	// BatchSize is how many descriptors are queued per doorbell
	// (default 8). Larger batches amortize the MMIO/trap cost — the
	// asynchronous usage the paper describes.
	BatchSize int

	queued uint32
	inited bool
}

// NewDriver builds a driver (64 ring slots by default). Its waits launch
// a partial batch first.
func NewDriver(mmio mem.Addr, taskBuf mem.Addr, slots int) *Driver {
	if slots <= 0 {
		slots = 64
	}
	dr := &Driver{Driver: devkit.NewDriver(mmio, taskBuf, slots, DescSize), BatchSize: 8}
	dr.OnWait = dr.Flush
	return dr
}

// Submit queues one serialization task; every BatchSize tasks a single
// doorbell launches the batch. Call Flush (or a wait) to launch a
// partial batch.
func (dr *Driver) Submit(e app.Env, d Desc) {
	if !dr.inited {
		// Program the descriptor ring registers once.
		dr.inited = true
		e.MMIOWrite(dr.MMIOBase+RegRingBase, uint32(dr.TaskBuf))
		e.MMIOWrite(dr.MMIOBase+RegRingSize, uint32(dr.Slots))
	}
	b := EncodeDesc(d)
	dr.Post(e, b[:])
	dr.queued++
	if int(dr.queued) >= dr.BatchSize {
		dr.Flush(e)
	}
}

// Flush launches all queued descriptors with one doorbell.
func (dr *Driver) Flush(e app.Env) {
	if dr.queued == 0 {
		return
	}
	e.MMIOWrite(dr.MMIOBase+RegBatch, dr.queued)
	dr.queued = 0
}
