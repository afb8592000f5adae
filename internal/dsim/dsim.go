// Package dsim implements the DSim di-simulator (paper §4): accelerator
// simulation on two decoupled tracks. The *performance track* is a
// Latency Petri Net that computes when things happen; the *functionality
// track* is the accelerator's functional simulator, which computes what
// the answers are. The functional track runs first for each task (§4.3),
// reading host memory through zero-cost DMAs into a memoized plan that
// lists every DMA the accelerator would issue; the LPN's transitions
// then replay the plan's DMAs with accurate timestamps as they fire,
// each token naming the plan entry it carries.
//
// A DSim device is externally indistinguishable from the corresponding
// RTL simulation in register semantics, results in memory and DMA count;
// only the timestamps come from the LPN rather than from gate-level
// state. Accelerator models embed Base and provide their descriptor
// codec, functional model, plan and LPN; the register frontend and task
// lifecycle are the device kit's.
package dsim

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/lpn"
	"nexsim/internal/vclock"
)

// Base is the common machinery of a DSim device (the paper's adapter
// base class with RegRead/RegWrite/ExecuteEvent/DmaComplete callbacks,
// §A.2): the kit's register bank and task lifecycle plus the LPN.
// Accelerator models embed it and implement devkit.Model's Doorbell on
// top.
type Base struct {
	devkit.Bank
	Net *lpn.Net
}

// Init prepares the base: the device's name, the model whose Doorbell
// the registers drive (the device embedding this Base), and its LPN.
// Call once after the LPN is built.
func (b *Base) Init(name string, model devkit.Model, net *lpn.Net) {
	b.Bank.Init(name, model)
	b.Net = net
}

// Now returns the device's local virtual time, the LPN's clock.
func (b *Base) Now() vclock.Time { return b.Net.Now() }

// Advance implements accel.Device: runs the LPN up to t and counts its
// firings. A stale t fires nothing: the LPN fires no transition before
// its clock.
func (b *Base) Advance(t vclock.Time) {
	b.CountSteps(int64(b.Net.Advance(t)))
}

// NextEvent implements accel.Device.
func (b *Base) NextEvent() (vclock.Time, bool) {
	return b.Net.NextEvent()
}
