// Package hostkit is the host side of the paper's adapter contract (§5,
// §A.2, Table 1) written once: what any host engine needs to pair with
// any accelerator simulator, independent of how the engine schedules
// threads. It owns
//
//   - the device complex (Complex): the bindings of accelerator
//     simulators to MMIO windows and DMA fabrics, the accel.Host each
//     device drives the engine through, the catch-up (Advance) and
//     fast-forward (NextEvent) calls, and the parallel stepper lanes of
//     DESIGN.md §10 — this is the only package that imports parsim;
//   - the thread environment (NewEnv): the one app.Env implementation
//     over coro.Thread;
//   - the time-warp state (Warp) behind CompressT/JumpT/SlipStream.
//
// The engines (nex, exacthost) keep what is theirs: the scheduler, the
// interrupt-delivery policy (handed to the complex as a RaiseIRQ
// function), the budget unit, and NEX's journal snapshot.
package hostkit

import (
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/parsim"
	"nexsim/internal/vclock"
)

// Binding attaches one accelerator simulator to a host engine: its MMIO
// window and the fabric its DMAs traverse.
type Binding struct {
	Device   accel.Device
	MMIOBase mem.Addr
	MMIOSize uint64
	DMAPort  memsys.Port // interconnect + caches + memory; nil = DMAs complete instantly
	// MMIOCost is the CPU-side cost of one register read (the round
	// trip); default 850ns (~PCIe round trip + core cost).
	MMIOCost vclock.Duration
	// MMIOWriteCost is the cost of a posted register write (the CPU does
	// not wait for the device); default 120ns.
	MMIOWriteCost vclock.Duration

	idx int // position in the complex, set by Attach
}

// Complex is one engine's set of attached devices, caught up together.
// All methods run on the engine goroutine.
type Complex struct {
	mem   *mem.Memory
	raise func(at vclock.Time, vector int)
	binds []*Binding
	time  vclock.Time // every device has been advanced (or granted) to at least this

	// Parallel intra-run state (nil/zero when serial).
	crew  *parsim.Crew
	lanes int
	wall  time.Duration
}

// NewComplex builds an empty complex over the engine's memory. raise is
// the engine's interrupt-delivery policy: devices' RaiseIRQ calls land
// there, on the engine goroutine.
func NewComplex(m *mem.Memory, raise func(at vclock.Time, vector int)) *Complex {
	return &Complex{mem: m, raise: raise}
}

// Attach registers a binding, defaulting its MMIO costs. Must precede
// the run.
func (c *Complex) Attach(b *Binding) {
	if b.MMIOCost == 0 {
		b.MMIOCost = 850 * vclock.Nanosecond
	}
	if b.MMIOWriteCost == 0 {
		b.MMIOWriteCost = 120 * vclock.Nanosecond
	}
	b.idx = len(c.binds)
	c.binds = append(c.binds, b)
}

// Len returns the number of attached devices.
func (c *Complex) Len() int { return len(c.binds) }

// Lookup finds the binding whose MMIO window covers addr, or nil.
func (c *Complex) Lookup(addr mem.Addr) *Binding {
	for _, b := range c.binds {
		if addr >= b.MMIOBase && uint64(addr) < uint64(b.MMIOBase)+b.MMIOSize {
			return b
		}
	}
	return nil
}

// HostFor returns the accel.Host through which the device bound by b
// reaches the engine's memory system and interrupt policy.
func (c *Complex) HostFor(b *Binding) accel.Host { return &hostShim{c: c, b: b} }

type hostShim struct {
	c *Complex
	b *Binding
}

func (h *hostShim) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if h.b.DMAPort == nil {
		return at
	}
	return h.b.DMAPort.Access(at, kind, addr, size)
}

func (h *hostShim) ZeroCostRead(addr mem.Addr, p []byte)    { h.c.mem.ReadAt(addr, p) }
func (h *hostShim) ZeroCostWrite(addr mem.Addr, p []byte)   { h.c.mem.WriteAt(addr, p) }
func (h *hostShim) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.c.mem.Sum(addr, n) }
func (h *hostShim) RaiseIRQ(at vclock.Time, vector int)     { h.c.raise(at, vector) }

// Time returns the time the complex was last advanced to.
func (c *Complex) Time() vclock.Time { return c.time }

// Advance catches the complex (including the dedicated DMA simulator,
// which the synchronous fabric models in lock-step) up to time t; a
// stale t is a no-op. In parallel intra-run mode devices that cannot
// raise interrupts are granted the horizon for their stepper lane — the
// host keeps executing while they catch up — and are only waited for
// when the host next observes them (Join, NextEvent). IRQ-capable
// devices keep the serial schedule, because their Advance calls the
// engine's RaiseIRQ policy; they are joined first so the inline Advance
// cannot race a still-draining grant from before the driver enabled
// IRQs.
func (c *Complex) Advance(t vclock.Time) {
	if t < c.time {
		return
	}
	c.time = t
	if c.crew == nil {
		for _, b := range c.binds {
			b.Device.Advance(t)
		}
		return
	}
	for i, b := range c.binds {
		if parsim.MayRaiseIRQ(b.Device) {
			c.crew.Join(i)
			b.Device.Advance(t)
		} else {
			c.crew.Grant(i, t)
		}
	}
}

// Join quiesces one device's stepper lane before the host observes the
// device (an MMIO access). No-op when serial.
func (c *Complex) Join(b *Binding) {
	if c.crew != nil {
		c.crew.Join(b.idx)
	}
}

// NextEvent returns the earliest time any device will act on its own.
// NextEvent on a mid-advance device is a race, so every lane is
// quiesced first.
func (c *Complex) NextEvent() (vclock.Time, bool) {
	if c.crew != nil {
		c.crew.JoinAll()
	}
	best, any := vclock.Never, false
	for _, b := range c.binds {
		if at, ok := b.Device.NextEvent(); ok && at < best {
			best, any = at, true
		}
	}
	return best, any
}

// NextInlineEvent is NextEvent restricted to the devices a parallel run
// advances inline (the IRQ-capable ones). Async-granted devices are
// skipped: their steppers may be mid-advance, and their internal events
// cannot affect the host before the next joined observation. Only
// meaningful while Parallel.
func (c *Complex) NextInlineEvent() (vclock.Time, bool) {
	best, any := vclock.Never, false
	for i, b := range c.binds {
		if !parsim.MayRaiseIRQ(b.Device) {
			continue
		}
		c.crew.Join(i)
		if at, ok := b.Device.NextEvent(); ok && at < best {
			best, any = at, true
		}
	}
	return best, any
}

// Start spawns the stepper lanes for parallel intra-run mode: with
// intra >= 2, devices advance on up to intra-1 goroutines under
// conservative lookahead. No-op when serial, without devices, or when
// already started.
func (c *Complex) Start(intra int) {
	if intra < 2 || len(c.binds) == 0 || c.crew != nil {
		return
	}
	devs := make([]accel.Device, len(c.binds))
	for i, b := range c.binds {
		devs[i] = b.Device
	}
	c.crew = parsim.New(devs, intra-1)
	c.lanes = c.crew.Lanes()
}

// Parallel reports whether stepper lanes are live.
func (c *Complex) Parallel() bool { return c.crew != nil }

// Stop quiesces and terminates the stepper lanes, folding their busy
// time into the device-wall statistic. Idempotent.
func (c *Complex) Stop() {
	if c.crew == nil {
		return
	}
	c.wall += c.crew.DeviceWall()
	c.crew.Shutdown()
	c.crew = nil
}

// IntraStats reports the stepper-lane count of the last started run (0
// when it ran serially) and the cumulative wall time the steppers spent
// advancing devices.
func (c *Complex) IntraStats() (lanes int, deviceWall time.Duration) {
	return c.lanes, c.wall
}
