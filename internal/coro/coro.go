// Package coro provides the deterministic coroutine machinery on which
// host engines run simulated application threads.
//
// Each simulated thread is a runtime coroutine (iter.Pull) that is
// *never* runnable at the same time as the engine: Resume and Yield
// switch directly between the engine's event loop and exactly one thread
// at a time, on the same OS thread, without passing through the Go
// scheduler. The result is a single logical thread of control, so
// simulations are deterministic regardless of GOMAXPROCS.
package coro

import (
	"fmt"
	"iter"

	"nexsim/internal/isa"
	"nexsim/internal/vclock"
)

// Op identifies what a thread is asking its engine to do.
type Op int

const (
	// OpExit: the thread function returned. The engine must not resume
	// the thread again.
	OpExit Op = iota
	// OpAdvance: consume CPU time described by Work.
	OpAdvance
	// OpInteract: run Interact on the engine at the thread's resolved
	// virtual time (MMIO, task-buffer access). The returned duration is
	// charged to the thread as interaction latency.
	OpInteract
	// OpPark: block until another thread (or the engine) unparks us.
	OpPark
	// OpUnpark: make Target runnable (the current thread keeps running).
	OpUnpark
	// OpSleep: block for Dur of virtual time.
	OpSleep
	// OpSpawn: create a new thread running Fn; reply carries the Thread.
	OpSpawn
	// OpWaitIRQ: block until interrupt Vector is delivered.
	OpWaitIRQ
	// OpWarp: enter/exit a time-warp region (CompressT/SlipStream/JumpT).
	OpWarp
	// OpTick: NEX tick mode — a designated batched synchronization point.
	OpTick
)

// WarpKind selects a time-warping feature (paper §3.4).
type WarpKind int

const (
	CompressT WarpKind = iota
	SlipStream
	JumpT
)

func (w WarpKind) String() string {
	switch w {
	case CompressT:
		return "CompressT"
	case SlipStream:
		return "SlipStream"
	default:
		return "JumpT"
	}
}

// Request is what a yielding thread hands to its engine.
type Request struct {
	Op       Op
	Work     isa.Work                             // OpAdvance
	Interact func(at vclock.Time) vclock.Duration // OpInteract
	Dur      vclock.Duration                      // OpSleep
	Target   *Thread                              // OpUnpark
	Name     string                               // OpSpawn
	Body     any                                  // OpSpawn: the engine's thread-body type
	Vector   int                                  // OpWaitIRQ
	Warp     WarpKind                             // OpWarp
	Factor   float64                              // OpWarp (CompressT)
	Enter    bool                                 // OpWarp: true=enter region
	Light    bool                                 // OpInteract: non-trapping (tick-mode batched access)
	Addr     uint64                               // OpInteract: target address (engines classify device vs memory accesses)
}

// Thread is one simulated application thread.
type Thread struct {
	ID   int
	Name string

	// Data is engine-private per-thread state.
	Data any

	fn func()
	// next/stop drive the coroutine and are nil until the first Resume;
	// yield is the coroutine's side of the same switch.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// req carries the pending request across the switch, so the switch
	// itself moves no data.
	req    Request
	exited bool

	// Spawn handshake: the engine places the new thread here before
	// resuming the spawner.
	Spawned *Thread
}

// NewThread creates a thread that will run fn when first resumed. The
// engine assigns IDs.
func NewThread(id int, name string, fn func()) *Thread {
	return &Thread{ID: id, Name: name, fn: fn}
}

// Resume transfers control to the thread until its next request. It
// panics if called on an exited thread — that is always an engine bug.
// A panic in the thread body surfaces here, on the caller's goroutine,
// with its original value, and leaves the thread exited.
//
//simlint:hotpath one call per NEX thread-epoch, trap and exacthost yield
func (t *Thread) Resume() Request {
	if t.exited || t.next == nil {
		t.start()
	}
	t.next()
	return t.req
}

// start is Resume's cold path: the exited check and the lazy creation of
// the coroutine, so a thread that is never resumed costs no goroutine.
func (t *Thread) start() {
	if t.exited {
		panic(fmt.Sprintf("coro: resume of exited thread %s", t.Name))
	}
	t.next, t.stop = iter.Pull(t.run)
}

// run is the coroutine body. However fn ends — return, Kill unwind or a
// real panic — the thread is exited before control is back in the
// engine; only the kill sentinel is swallowed, any other panic value
// travels on through iter.Pull and out of Resume.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		t.exited = true
		t.req = Request{Op: OpExit}
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
		}
	}()
	t.fn()
}

// Yield hands a request to the engine and blocks until resumed. It must
// only be called from within the thread's own coroutine (i.e. from Env
// method implementations).
//
//simlint:hotpath the thread side of every Resume
func (t *Thread) Yield(r Request) {
	t.req = r
	if !t.yield(struct{}{}) {
		// Kill stopped the coroutine: unwind the body. yield keeps
		// returning false from here on, so a deferred function that
		// yields again keeps unwinding instead of handing the engine a
		// request it will never process.
		panic(killSentinel{})
	}
}

// killSentinel is the panic value that unwinds a killed thread's body;
// run recovers it (and only it).
type killSentinel struct{}

// Kill force-terminates the thread: stopping the coroutine makes the
// Yield it is parked in return false, the body unwinds via a recovered
// sentinel panic (deferred functions run) and the coroutine's goroutine
// ends. Engines call it when abandoning a run mid-flight (budget
// aborts) so no coroutine is left parked. Must be called from the engine
// side, with the thread parked in Yield (the only state a started,
// non-running thread can be in). Safe on exited or never-started
// threads, which have no coroutine to unwind.
func (t *Thread) Kill() {
	if t.exited {
		return
	}
	if t.stop != nil {
		t.stop()
	}
	t.exited = true
}

// Exited reports whether the thread function has returned.
func (t *Thread) Exited() bool { return t.exited }

func (t *Thread) String() string { return fmt.Sprintf("thread(%d,%s)", t.ID, t.Name) }
