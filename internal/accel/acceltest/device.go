// Package acceltest holds the scripted fake accelerator the host-engine
// and device-complex tests share. Test-only: no production package
// imports it.
package acceltest

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Call is one Advance ('A') or NextEvent ('N') call the device received.
type Call struct {
	Op byte
	At vclock.Time // Advance target; zero for NextEvent
}

// Device processes one task per register write: optionally a timed DMA
// read, then Busy of work, then the status register (every offset reads
// it) flips to 1 and, with IRQ set, the interrupt is raised.
type Device struct {
	Busy vclock.Duration
	IRQ  int // vector raised on completion; 0 = polling only
	DMA  int // bytes DMA-read from address 0 at task start; 0 = none
	Host accel.Host

	Reads   int   // register reads
	Started int64 // tasks launched
	Pending bool  // a task is in flight
	Calls   []Call

	now    vclock.Time
	doneAt vclock.Time
	status uint32
}

func (d *Device) Name() string { return "fake" }

func (d *Device) SetHost(h accel.Host) { d.Host = h }

// MayRaiseIRQ lets parallel hosts run a polling-only device on a
// stepper lane (parsim.IRQCapable).
func (d *Device) MayRaiseIRQ() bool { return d.IRQ != 0 }

func (d *Device) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.Advance(at)
	d.Reads++
	return d.status
}

func (d *Device) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	d.Started++
	d.status = 0
	d.Pending = true
	start := d.now // >= at: the host may have synchronized past the trap
	if d.DMA > 0 {
		start = d.Host.DMA(start, mem.Read, 0, d.DMA)
	}
	d.doneAt = start.Add(d.Busy)
}

func (d *Device) Advance(t vclock.Time) {
	d.Calls = append(d.Calls, Call{Op: 'A', At: t})
	if t > d.now {
		d.now = t
	}
	if d.Pending && d.now >= d.doneAt {
		d.Pending = false
		d.status = 1
		if d.IRQ != 0 {
			d.Host.RaiseIRQ(d.doneAt, d.IRQ)
		}
	}
}

func (d *Device) NextEvent() (vclock.Time, bool) {
	d.Calls = append(d.Calls, Call{Op: 'N'})
	if d.Pending {
		return d.doneAt, true
	}
	return vclock.Never, false
}

func (d *Device) Stats() accel.DeviceStats {
	return accel.DeviceStats{TasksStarted: d.Started}
}
