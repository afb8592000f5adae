// Package hostkit is the host side of the paper's adapter contract (§5,
// §A.2, Table 1) written once: what any host engine needs to pair with
// any accelerator simulator, independent of how the engine schedules
// threads. It owns
//
//   - the device complex (Complex): the bindings of accelerator
//     simulators to MMIO windows and DMA fabrics, the accel.Host each
//     device drives the engine through, and the catch-up (Advance) and
//     fast-forward (NextEvent, NextInlineEvent) calls. The complex is the
//     one owner of catch-up: engines advance it before every register
//     access, so no device advances itself;
//   - the thread environment: the one app.Env implementation over
//     coro.Thread, with the application blocking semantics. Park
//     consumes a pending wake without yielding, WaitIRQ is a Park on a
//     device's interrupt that consumes a latched interrupt the same way,
//     and Unpark and Spawn run inline on the calling thread;
//   - the per-thread record (ThreadState): the time-warp state behind
//     CompressT/JumpT/SlipStream and the park handshake;
//   - the engine shell (Shell), which both engines embed: the thread
//     table with Spawn and Reap, the interrupt path (the interrupts
//     devices raised, each device's wait list and latch, Deliver and the
//     delivered count), the budget watchdog (Budget, OverBudget,
//     BudgetExceeded) and the trace guard.
//
// The engines (nex, exacthost) keep what is theirs: the scheduler and
// its wake rule (EnvConfig.Wake: from when a woken or new thread may
// run), when a raised interrupt is delivered (the time each passes
// Deliver), what counts as a budget step (NEX epochs, event-queue
// steps), and NEX's prefix halt.
package hostkit

import (
	"nexsim/internal/accel"
	"nexsim/internal/coro"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
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

	// The device's interrupt, kept by the Shell: the threads blocked in
	// WaitIRQ on it, oldest first, and the interrupts delivered while
	// none waited, each consumed by a later WaitIRQ.
	waiters []*coro.Thread
	latched int
}

// Complex is one engine's set of attached devices, caught up together.
// All methods run on the engine goroutine, which is also the goroutine
// every device runs on.
type Complex struct {
	mem   *mem.Memory
	raise func(at vclock.Time, b *Binding)
	binds []*Binding
	time  vclock.Time // every device has been advanced to at least this
}

// NewComplex builds an empty complex over the engine's memory. A
// device's RaiseIRQ lands in raise, on the engine goroutine, with the
// binding of the device that raised it.
func NewComplex(m *mem.Memory, raise func(at vclock.Time, b *Binding)) *Complex {
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
// reaches the engine's memory system and raises its interrupt.
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
func (h *hostShim) RaiseIRQ(at vclock.Time)                 { h.c.raise(at, h.b) }

// Time returns the time the complex was last advanced to.
func (c *Complex) Time() vclock.Time { return c.time }

// Advance catches the complex (including the dedicated DMA simulator,
// which the synchronous fabric models in lock-step) up to time t; a
// stale t is a no-op.
func (c *Complex) Advance(t vclock.Time) {
	if t < c.time {
		return
	}
	c.time = t
	for _, b := range c.binds {
		b.Device.Advance(t)
	}
}

// NextEvent returns the earliest time any device will act on its own.
func (c *Complex) NextEvent() (vclock.Time, bool) {
	best, any := vclock.Never, false
	for _, b := range c.binds {
		if at, ok := b.Device.NextEvent(); ok && at < best {
			best, any = at, true
		}
	}
	return best, any
}

// NextInlineEvent is NextEvent restricted to the devices that may raise
// interrupts. Polling devices are skipped: their internal events cannot
// affect the host before it next observes them, and the host catches
// them up then.
func (c *Complex) NextInlineEvent() (vclock.Time, bool) {
	best, any := vclock.Never, false
	for _, b := range c.binds {
		if !b.Device.MayRaiseIRQ() {
			continue
		}
		if at, ok := b.Device.NextEvent(); ok && at < best {
			best, any = at, true
		}
	}
	return best, any
}
