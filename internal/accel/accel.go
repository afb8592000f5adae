// Package accel defines the interface between host simulators (NEX, the
// gem5-style engine, the reference engine) and accelerator simulators
// (DSim models and RTL-style cycle models).
//
// The contract mirrors the paper's adapter design (§5, §A.2): the host
// drives the device with register reads/writes and AdvanceUntil-style
// catch-up calls; the device drives the host with timed DMAs, zero-cost
// (functional) DMAs, and interrupts. Catch-up is the host's alone: before
// a register access at time at, the host has advanced the device to at
// least at (hostkit.Complex does it for every engine), so no device
// advances itself.
package accel

import (
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Device is an accelerator simulator as seen by a host engine.
//
// All methods are called from the host's single-threaded event loop.
type Device interface {
	// Name identifies the device in traces.
	Name() string

	// SetHost wires the device to the Host its DMAs and interrupts go
	// through. Called once, before the run.
	SetHost(h Host)

	// RegRead reads a control register at byte offset off, at virtual
	// time at. The host has advanced the device to at least at.
	RegRead(at vclock.Time, off mem.Addr) uint32

	// RegWrite writes a control register at virtual time at; doorbell
	// registers launch tasks. The host has advanced the device to at
	// least at.
	RegWrite(at vclock.Time, off mem.Addr, v uint32)

	// Advance runs the device up to time t (the host's AdvanceUntil).
	// During the call the device may issue DMAs and raise interrupts
	// through its Host, all timestamped <= t. A t below a previous
	// target is stale and moves nothing back.
	Advance(t vclock.Time)

	// NextEvent returns the earliest future time at which the device will
	// act on its own (complete a stage, issue a DMA, raise an interrupt),
	// or (vclock.Never, false) when idle. Hosts use it to fast-forward
	// idle devices (the FastForward primitive of §A.2) and to advance
	// time when all CPU threads are blocked.
	NextEvent() (vclock.Time, bool)

	// MayRaiseIRQ reports whether an Advance may raise an interrupt now.
	// A host interleaves only such devices' events with its own and
	// catches the others up when it next observes them.
	MayRaiseIRQ() bool

	// Stats returns cumulative device statistics.
	Stats() DeviceStats
}

// DeviceStats is the common statistics block devices expose.
type DeviceStats struct {
	TasksStarted   int64
	TasksCompleted int64
	BusyTime       vclock.Duration // time with >=1 task in flight
	DMABytes       int64
	HostSteps      int64 // LPN firings of a DSim model; RTL models report 0
}

// Host is the environment a host engine provides to a device.
type Host interface {
	// DMA issues a timed memory access on behalf of the device through
	// the configured interconnect + cache hierarchy and returns its
	// completion time. It affects virtual time (queueing, bandwidth) but
	// moves no data.
	DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time

	// ZeroCostRead / ZeroCostWrite move data between host memory and the
	// device functionally, without affecting virtual time (the paper's
	// zero-cost DMA, implemented on gem5 with functional accesses and
	// natively supported by NEX).
	ZeroCostRead(addr mem.Addr, p []byte)
	ZeroCostWrite(addr mem.Addr, p []byte)

	// ZeroCostSum fingerprints the whole pages of host memory overlapping
	// [addr, addr+n) (mem.Memory.Sum) without moving them: what a
	// functional track keys its memo on in place of a bulk input's bytes,
	// so that a memo hit reads none of them (DESIGN.md §4.3).
	ZeroCostSum(addr mem.Addr, n int) uint64

	// RaiseIRQ raises the device's interrupt at virtual time at. The
	// host knows which device raised it; when software sees it is the
	// host's delivery rule (e.g. NEX hybrid synchronization delivers at
	// interval boundaries).
	RaiseIRQ(at vclock.Time)
}
