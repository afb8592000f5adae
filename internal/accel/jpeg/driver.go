package jpeg

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/app"
	"nexsim/internal/mem"
)

// Driver is the software driver for the JPEG decoder: the kit's driver
// plus the descriptor codec.
type Driver struct{ devkit.Driver }

// NewDriver builds a driver over a device's MMIO window and a task
// buffer region.
func NewDriver(mmio mem.Addr, taskBuf mem.Addr, slots int) *Driver {
	return &Driver{devkit.NewDriver(mmio, taskBuf, slots, DescSize)}
}

// Submit writes a descriptor into the next ring slot and rings the
// doorbell. It does not wait for completion.
func (dr *Driver) Submit(e app.Env, d Desc) {
	b := EncodeDesc(d)
	dr.Doorbell(e, dr.Post(e, b[:]))
}
