package vta

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/app"
	"nexsim/internal/mem"
)

// Driver is the TVM-runtime-like software driver: it JITs GEMM tasks to
// instruction streams in DRAM and launches them through the kit driver's
// task buffer and MMIO doorbell.
type Driver struct {
	devkit.Driver

	// progArena is the DRAM region instruction streams are written to.
	progArena mem.Addr
	progOff   mem.Addr
}

// NewDriver builds a driver; progArena must be large enough for all
// instruction streams launched.
func NewDriver(mmio, taskBuf, progArena mem.Addr, slots int) *Driver {
	return &Driver{Driver: devkit.NewDriver(mmio, taskBuf, slots, DescSize), progArena: progArena}
}

// Launch writes a compiled program into the arena and rings the
// doorbell. The caller has already placed operands in memory.
func (dr *Driver) Launch(e app.Env, prog []Instr) {
	progAddr := dr.progArena + dr.progOff
	dr.progOff += mem.Addr(len(prog) * InstrSize)
	WriteProgram(e.Mem(), progAddr, prog)

	b := EncodeDesc(Desc{Prog: progAddr, Count: uint32(len(prog))})
	dr.Doorbell(e, dr.Post(e, b[:]))
}
