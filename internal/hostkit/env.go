package hostkit

import (
	"fmt"

	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// EnvConfig is what every thread Env of one engine shares: the engine's
// constants and the two things that genuinely differ between engines.
type EnvConfig struct {
	Clock          vclock.Hz
	Devices        *Complex
	TaskAccessCost vclock.Duration // virtual cost of one task-buffer access

	// LightTasks makes task-buffer accesses non-trapping (NEX tick mode,
	// §3.2); exact-time engines ignore the distinction.
	LightTasks bool
	// Now is the thread's view of virtual time: NEX threads see their
	// epoch-relative cursor (the paper's clock_gettime interposition),
	// exact-time threads see the global event time.
	Now func(th *coro.Thread) vclock.Time
}

// env implements app.Env for one simulated thread by yielding requests
// to the engine. Methods run on the thread's coroutine; the engine is
// blocked in Resume while they execute, so reads of engine state are
// safe.
type env struct {
	cfg *EnvConfig
	th  *coro.Thread
	w   *Warp
}

// NewEnv returns the Env of thread th, whose warp state is w.
func NewEnv(cfg *EnvConfig, th *coro.Thread, w *Warp) app.Env {
	return &env{cfg: cfg, th: th, w: w}
}

func (v *env) Now() vclock.Time { return v.cfg.Now(v.th) }

func (v *env) Clock() vclock.Hz { return v.cfg.Clock }

func (v *env) Compute(w isa.Work) {
	v.th.Yield(coro.Request{Op: coro.OpAdvance, Work: w})
}

func (v *env) ComputeFor(d vclock.Duration) {
	if d <= 0 {
		return
	}
	v.w.SeedCtr++
	seed := uint64(v.th.ID)<<32 ^ v.w.SeedCtr
	v.Compute(isa.Segment(d, v.cfg.Clock, isa.DefaultMix, 64<<10, 1.5, seed))
}

// device resolves the binding an MMIO access at addr targets. In
// parallel intra-run mode it quiesces that device's stepper lane before
// the caller observes the device; other devices keep running.
func (v *env) device(what string, addr mem.Addr) *Binding {
	b := v.cfg.Devices.Lookup(addr)
	if b == nil {
		panic(fmt.Sprintf("hostkit: MMIO %s of unmapped address %#x", what, uint64(addr)))
	}
	v.cfg.Devices.Join(b)
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

// task yields a task-buffer access: plain shared memory, so it may
// fault into the engine's protection handler but touches no device.
func (v *env) task(addr mem.Addr, p []byte, write bool) {
	v.th.Yield(coro.Request{
		Op:    coro.OpInteract,
		Light: v.cfg.LightTasks,
		Addr:  uint64(addr),
		Interact: func(vclock.Time) vclock.Duration {
			if write {
				v.Mem().WriteFaulting(addr, p)
			} else {
				v.Mem().ReadFaulting(addr, p)
			}
			return v.cfg.TaskAccessCost
		},
	})
}

func (v *env) TaskRead(addr mem.Addr, p []byte) { v.task(addr, p, false) }

func (v *env) TaskWrite(addr mem.Addr, p []byte) { v.task(addr, p, true) }

func (v *env) Mem() *mem.Memory { return v.cfg.Devices.mem }

func (v *env) Self() *coro.Thread { return v.th }

func (v *env) Park() { v.th.Yield(coro.Request{Op: coro.OpPark}) }

func (v *env) Unpark(t *coro.Thread) {
	v.th.Yield(coro.Request{Op: coro.OpUnpark, Target: t})
}

func (v *env) Spawn(name string, fn app.ThreadFunc) *coro.Thread {
	v.th.Yield(coro.Request{Op: coro.OpSpawn, Name: name, Body: fn})
	nt := v.th.Spawned
	v.th.Spawned = nil
	return nt
}

func (v *env) Sleep(d vclock.Duration) {
	if d <= 0 {
		return
	}
	v.th.Yield(coro.Request{Op: coro.OpSleep, Dur: d})
}

func (v *env) WaitIRQ(vec int) {
	v.th.Yield(coro.Request{Op: coro.OpWaitIRQ, Vector: vec})
}

// warp runs fn inside a time-warp region; the deferred exit unwinds the
// region even when fn panics and an outer frame recovers.
func (v *env) warp(kind coro.WarpKind, factor float64, fn func()) {
	v.th.Yield(coro.Request{Op: coro.OpWarp, Warp: kind, Factor: factor, Enter: true})
	defer v.th.Yield(coro.Request{Op: coro.OpWarp, Warp: kind, Enter: false})
	fn()
}

func (v *env) CompressT(factor float64, fn func()) {
	if factor <= 0 {
		panic("hostkit: CompressT factor must be positive")
	}
	v.warp(coro.CompressT, factor, fn)
}

func (v *env) SlipStream(fn func()) { v.warp(coro.SlipStream, 0, fn) }

func (v *env) JumpT(fn func()) { v.warp(coro.JumpT, 0, fn) }

func (v *env) Tick() { v.th.Yield(coro.Request{Op: coro.OpTick}) }
