// Package devkit is the one device kit: everything an accelerator model
// shares with every other accelerator model, written once. A model embeds
// a Bank (register map, task lifecycle, statistics, interrupt gating),
// an RTL-style model also a Clock (cycle counter, the per-cycle Advance
// loop, and Busy and NextEvent answered from the Units it owns); its
// software driver embeds Driver (descriptor ring, doorbell, completion
// waits); and its functional track memoizes through a Memo (one LRU
// policy, one byte budget). What is left to the model is its descriptor
// codec, its functional track, and its LPN or the Step of its unit
// pipeline (DESIGN.md §4.4). The kit knows no device: it imports neither
// dsim nor any model.
package devkit

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// The register map every kit device exposes (byte offsets from its MMIO
// base). Unknown offsets read 0 and ignore writes.
const (
	RegDoorbell  = 0x00 // W: physical address of a task descriptor
	RegStatus    = 0x04 // R: count of completed tasks (monotonic)
	RegBusy      = 0x08 // R: tasks in flight
	RegIRQEnable = 0x0c // W: nonzero = raise the device's interrupt on completion
)

// Model is the part of a device its Bank calls back into.
type Model interface {
	// Doorbell launches the task whose descriptor sits at desc, written
	// at time at. The model calls Start(at) for it, and Complete once it
	// finishes.
	Doorbell(at vclock.Time, desc mem.Addr)
}

// ExtraRegs is implemented by a model with registers beyond the four
// (protoacc's descriptor ring): it receives the writes the Bank does not
// handle.
type ExtraRegs interface {
	WriteReg(at vclock.Time, off mem.Addr, v uint32)
}

// Bank is a device's register bank and task lifecycle. Embedded in a
// model it supplies Name, SetHost, Stats, RegRead, RegWrite and
// MayRaiseIRQ of accel.Device; a Clock or dsim.Base adds Advance and
// NextEvent.
// A register access never advances the model: the host has advanced the
// device to the access time already (accel.Device).
type Bank struct {
	// Host is the owning engine's side of the device, wired by SetHost.
	Host accel.Host

	name  string
	model Model

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	stats     accel.DeviceStats
	busyStart vclock.Time
}

// Init names the device and binds the model the registers drive. Call
// once, before first use.
func (b *Bank) Init(name string, m Model) {
	b.name, b.model = name, m
}

// Name implements accel.Device.
func (b *Bank) Name() string { return b.name }

// SetHost implements accel.Device.
func (b *Bank) SetHost(h accel.Host) { b.Host = h }

// Stats implements accel.Device.
func (b *Bank) Stats() accel.DeviceStats { return b.stats }

// MayRaiseIRQ implements accel.Device: an Advance may deliver an
// interrupt only once the driver has enabled interrupts via the
// IRQ-enable register.
func (b *Bank) MayRaiseIRQ() bool { return b.irqEnabled }

// Idle reports whether no task is in flight.
func (b *Bank) Idle() bool { return b.inFlight == 0 }

// RegRead implements accel.Device.
func (b *Bank) RegRead(at vclock.Time, off mem.Addr) uint32 {
	switch off {
	case RegStatus:
		return b.completed
	case RegBusy:
		return b.inFlight
	default:
		return 0
	}
}

// RegWrite implements accel.Device.
func (b *Bank) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	switch off {
	case RegDoorbell:
		b.model.Doorbell(at, mem.Addr(v))
	case RegIRQEnable:
		b.irqEnabled = v != 0
	default:
		if x, ok := b.model.(ExtraRegs); ok {
			x.WriteReg(at, off, v)
		}
	}
}

// Start is start-of-task bookkeeping; at is the doorbell time. The busy
// interval opens with the first task in flight.
func (b *Bank) Start(at vclock.Time) {
	b.stats.TasksStarted++
	if b.inFlight == 0 {
		b.busyStart = at
	}
	b.inFlight++
}

// Complete is end-of-task bookkeeping; at is the model's completion
// timestamp. The busy interval closes with the last task in flight, and
// the device's interrupt is raised iff the driver enabled it.
func (b *Bank) Complete(at vclock.Time) {
	b.completed++
	b.inFlight--
	b.stats.TasksCompleted++
	if b.inFlight == 0 {
		b.stats.BusyTime += at.Sub(b.busyStart)
	}
	if b.irqEnabled {
		b.Host.RaiseIRQ(at)
	}
}

// DMA issues a timed access through the host, counts its bytes and
// returns its completion time. A write's payload, when there is one,
// lands in host memory with it.
func (b *Bank) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int, payload []byte) vclock.Time {
	done := b.Host.DMA(at, kind, addr, size)
	b.stats.DMABytes += int64(size)
	if kind == mem.Write && payload != nil {
		b.Host.ZeroCostWrite(addr, payload)
	}
	return done
}

// CountSteps adds n LPN firings to the statistics' HostSteps.
func (b *Bank) CountSteps(n int64) { b.stats.HostSteps += n }
