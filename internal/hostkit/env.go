package hostkit

import (
	"fmt"

	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// taskAccessCost is the virtual cost of one task-buffer access
// (uncached shared memory), the same under every engine.
const taskAccessCost = 90 * vclock.Nanosecond

// EnvConfig is what every thread Env of one engine shares: the engine's
// constants and the things that genuinely differ between engines. The
// shell owns Spawn and the park handshake (Park, Unpark, WaitIRQ and
// interrupt delivery set and clear ThreadState's flags and the devices'
// wait lists); the engine supplies its view of time, its per-thread
// state and its wake rule.
type EnvConfig struct {
	Clock vclock.Hz

	// LightTasks makes task-buffer accesses non-trapping (NEX tick mode,
	// §3.2); exact-time engines ignore the distinction.
	LightTasks bool
	// Now is the thread's view of virtual time: NEX threads see their
	// epoch-relative cursor (the paper's clock_gettime interposition),
	// exact-time threads see the global event time.
	Now func(th *coro.Thread) vclock.Time
	// New returns the engine's per-thread state for th, a thread being
	// created (it becomes th.Data), and the ThreadState embedded in it.
	New func(th *coro.Thread) (data any, ts *ThreadState)
	// Wake is the engine's wake rule: make th runnable, no earlier than
	// at. th is a thread the running thread just spawned or unparked (at
	// is then that thread's Now) or one an interrupt delivered at at
	// woke. Exact-time engines dispatch it at at, NEX from the end of
	// the running epoch if that is later (the cross-epoch
	// synchronization skew of §3.3, §6.6).
	Wake func(th *coro.Thread, at vclock.Time)
}

// env implements app.Env for one simulated thread. Compute, interactions,
// Park, Sleep and WaitIRQ yield requests to the engine; Unpark and Spawn
// run inline and hand the woken or new thread to the engine's wake rule.
// The time warps write the thread's ThreadState, which engines only
// read, and unwind it in a deferred call even when fn panics and an
// outer frame recovers. Methods run on the thread's coroutine; the
// engine is blocked in Resume while they execute, so reads and writes
// of engine state are safe.
type env struct {
	k  *Shell
	th *coro.Thread
	w  *ThreadState
}

func (v *env) Now() vclock.Time { return v.k.env.Now(v.th) }

func (v *env) Compute(w isa.Work) {
	v.th.Yield(coro.Request{Op: coro.OpAdvance, Work: w})
}

func (v *env) ComputeFor(d vclock.Duration) {
	if d <= 0 {
		return
	}
	v.w.SeedCtr++
	seed := uint64(v.th.ID)<<32 ^ v.w.SeedCtr
	v.Compute(isa.Segment(d, v.k.env.Clock, isa.DefaultMix, 64<<10, 1.5, seed))
}

// device resolves the binding an MMIO access at addr targets.
func (v *env) device(what string, addr mem.Addr) *Binding {
	b := v.k.Dev.Lookup(addr)
	if b == nil {
		panic(fmt.Sprintf("hostkit: MMIO %s of unmapped address %#x", what, uint64(addr)))
	}
	return b
}

func (v *env) MMIORead(addr mem.Addr) uint32 {
	var out uint32
	v.th.Yield(coro.Request{Op: coro.OpInteract, Addr: uint64(addr), Interact: func(at vclock.Time) vclock.Duration {
		b := v.device("read", addr)
		out = b.Device.RegRead(at, addr-b.MMIOBase)
		return b.MMIOCost
	}})
	return out
}

func (v *env) MMIOWrite(addr mem.Addr, val uint32) {
	v.th.Yield(coro.Request{Op: coro.OpInteract, Addr: uint64(addr), Interact: func(at vclock.Time) vclock.Duration {
		b := v.device("write", addr)
		b.Device.RegWrite(at, addr-b.MMIOBase, val)
		return b.MMIOWriteCost
	}})
}

// TaskWrite yields a task-buffer write: plain shared memory, touched at
// the trap like an MMIO access but without a device register (or, Light
// in NEX's tick mode, without a trap).
func (v *env) TaskWrite(addr mem.Addr, p []byte) {
	v.th.Yield(coro.Request{
		Op:    coro.OpInteract,
		Light: v.k.env.LightTasks,
		Addr:  uint64(addr),
		Interact: func(vclock.Time) vclock.Duration {
			v.Mem().WriteAt(addr, p)
			return taskAccessCost
		},
	})
}

func (v *env) Mem() *mem.Memory { return v.k.Mem() }

func (v *env) Self() *coro.Thread { return v.th }

// Park consumes a pending wake without yielding; otherwise the thread
// parks until an Unpark hands it to the engine's wake rule.
func (v *env) Park() {
	if v.w.pending {
		v.w.pending = false
		return
	}
	v.w.parked = true
	v.th.Yield(coro.Request{Op: coro.OpPark})
}

// Unpark wakes t, also out of a WaitIRQ, whose wait list it leaves.
func (v *env) Unpark(t *coro.Thread) {
	ts := v.k.states[t.ID]
	if !ts.parked {
		ts.pending = true
		return
	}
	v.k.wake(t, v.Now())
}

func (v *env) Spawn(name string, fn app.ThreadFunc) *coro.Thread {
	t := v.k.Spawn(name, fn)
	v.k.env.Wake(t, v.Now())
	return t
}

func (v *env) Sleep(d vclock.Duration) {
	if d <= 0 {
		return
	}
	v.th.Yield(coro.Request{Op: coro.OpSleep, Dur: d})
}

// WaitIRQ is a Park on the interrupt of the device mapped at dev: it
// consumes an interrupt latched there without yielding; otherwise the
// thread parks on the device's wait list until a delivery (or an
// Unpark) wakes it.
func (v *env) WaitIRQ(dev mem.Addr) {
	b := v.device("interrupt wait", dev)
	if b.latched > 0 {
		b.latched--
		return
	}
	v.w.parked, v.w.irq = true, b
	b.waiters = append(b.waiters, v.th)
	v.th.Yield(coro.Request{Op: coro.OpPark})
}

func (v *env) CompressT(factor float64, fn func()) {
	if factor <= 0 {
		panic("hostkit: CompressT factor must be positive")
	}
	v.w.Compress = append(v.w.Compress, factor)
	defer func() { v.w.Compress = v.w.Compress[:len(v.w.Compress)-1] }()
	fn()
}

// SlipStream yields OpSlipExit when it leaves slip mode: NEX ends the
// epoch there (§3.4). Regions stack like JumpT's: only the outermost
// exit leaves slip mode and yields.
func (v *env) SlipStream(fn func()) {
	v.w.Slip++
	defer func() {
		if v.w.Slip--; v.w.Slip == 0 {
			v.th.Yield(coro.Request{Op: coro.OpSlipExit})
		}
	}()
	fn()
}

func (v *env) JumpT(fn func()) {
	v.w.JumpT++
	defer func() { v.w.JumpT-- }()
	fn()
}
