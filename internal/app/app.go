// Package app defines the software-stack abstraction: simulated
// application programs written against an Env interface that every host
// engine (reference, NEX, gem5-style) implements.
//
// A program's *functional* behaviour is ordinary Go code — it moves real
// bytes through simulated memory, launches real tasks on simulated
// accelerators, and checks real results. Its *timing* behaviour is
// expressed through Env: Compute segments, MMIO and task-buffer
// interactions, synchronization, and sleeps. The same unmodified program
// therefore runs on every engine, which is what lets the harness compare
// engines' simulated time and wall-clock cost on identical software —
// the paper's core experimental method.
package app

import (
	"nexsim/internal/coro"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// ThreadFunc is the body of one simulated application thread.
type ThreadFunc func(e Env)

// Program is a complete simulated application.
type Program struct {
	// Main is the initial thread; it may spawn others.
	Main ThreadFunc
}

// Env is the interface between application code and the host engine. All
// methods must be called from the thread's own goroutine.
type Env interface {
	// Now returns the current virtual time (the simulated
	// gettimeofday(), which NEX interposes via LD_PRELOAD in the paper).
	Now() vclock.Time

	// Compute consumes CPU time described by w.
	Compute(w isa.Work)

	// ComputeFor is a convenience: a segment of d native time with a
	// default instruction mix.
	ComputeFor(d vclock.Duration)

	// MMIORead / MMIOWrite access an accelerator control register.
	// They trap into the runtime (NEX §3.2) and cost the interconnect
	// round trip in virtual time.
	MMIORead(addr mem.Addr) uint32
	MMIOWrite(addr mem.Addr, v uint32)

	// TaskWrite writes shared task-buffer memory; like MMIO it is an
	// interception point, but it costs only a memory access.
	TaskWrite(addr mem.Addr, p []byte)

	// Mem exposes the simulated physical memory for data buffers, whose
	// accesses need no interception (paper §3.2: "Data buffers passed
	// between the software and the accelerator require no special
	// handling").
	Mem() *mem.Memory

	// Self returns the current thread.
	Self() *coro.Thread

	// Park blocks the current thread until some other thread unparks it.
	// A pending unpark (delivered while runnable) makes the next Park
	// return immediately.
	Park()

	// Unpark makes t runnable. Unparking a running thread sets its
	// pending-wake flag.
	Unpark(t *coro.Thread)

	// Spawn starts a new application thread.
	Spawn(name string, fn ThreadFunc) *coro.Thread

	// Sleep blocks for d of virtual time.
	Sleep(d vclock.Duration)

	// WaitIRQ blocks until the engine delivers an interrupt of the
	// device whose MMIO window holds dev (a driver passes its base). An
	// interrupt delivered while no thread waited on the device is
	// latched, and the next WaitIRQ consumes it without blocking. An
	// Unpark also ends the wait.
	WaitIRQ(dev mem.Addr)

	// CompressT runs fn with its compute time divided by factor — the
	// what-if accelerator analysis of §3.4.
	CompressT(factor float64, fn func())

	// SlipStream runs fn as fast as the engine can while staying on the
	// virtual timeline (large epochs in NEX); used for setup phases.
	SlipStream(fn func())

	// JumpT runs fn outside virtual time entirely: it costs zero virtual
	// time regardless of the computation inside.
	JumpT(fn func())
}

// Mutex is a virtual-time mutex. The zero value is unlocked. Not safe
// for use from multiple engines.
type Mutex struct {
	held    bool
	waiters []*coro.Thread
}

// Lock acquires the mutex, parking until available.
func (m *Mutex) Lock(e Env) {
	for m.held {
		m.waiters = append(m.waiters, e.Self())
		e.Park()
	}
	m.held = true
}

// Unlock releases the mutex and wakes one waiter (FIFO).
func (m *Mutex) Unlock(e Env) {
	if !m.held {
		panic("app: unlock of unlocked mutex")
	}
	m.held = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		e.Unpark(w)
	}
}

// Barrier synchronizes n threads; the last arrival releases all.
type Barrier struct {
	N       int
	arrived int
	waiters []*coro.Thread
	// Generation counter so reuse across phases is safe.
	gen int
}

// Wait blocks until N threads have called Wait in this generation.
func (b *Barrier) Wait(e Env) {
	if b.N <= 0 {
		panic("app: barrier with non-positive N")
	}
	b.arrived++
	if b.arrived == b.N {
		b.arrived = 0
		b.gen++
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			e.Unpark(w)
		}
		return
	}
	gen := b.gen
	b.waiters = append(b.waiters, e.Self())
	for gen == b.gen {
		e.Park()
	}
}

// Queue is a FIFO channel between threads; Pop blocks when empty, and a
// closed queue returns ok=false once drained.
type Queue struct {
	items   []any
	waiters []*coro.Thread
	closed  bool
}

// Push appends v and wakes one waiting consumer.
func (q *Queue) Push(e Env, v any) {
	if q.closed {
		panic("app: push to closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne(e)
}

// Close marks the queue finished and wakes all waiting consumers.
func (q *Queue) Close(e Env) {
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	for _, w := range ws {
		e.Unpark(w)
	}
}

// Pop removes the oldest item, blocking while the queue is empty and
// open. It returns ok=false when the queue is closed and drained.
func (q *Queue) Pop(e Env) (any, bool) {
	for len(q.items) == 0 {
		if q.closed {
			return nil, false
		}
		q.waiters = append(q.waiters, e.Self())
		e.Park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

func (q *Queue) wakeOne(e Env) {
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		e.Unpark(w)
	}
}

// WaitGroup tracks outstanding work across threads.
type WaitGroup struct {
	count   int
	waiters []*coro.Thread
}

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter, waking waiters at zero.
func (wg *WaitGroup) Done(e Env) {
	wg.count--
	if wg.count < 0 {
		panic("app: negative WaitGroup counter")
	}
	if wg.count == 0 {
		ws := wg.waiters
		wg.waiters = nil
		for _, w := range ws {
			e.Unpark(w)
		}
	}
}

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(e Env) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, e.Self())
		e.Park()
	}
}
