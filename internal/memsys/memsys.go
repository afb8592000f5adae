// Package memsys defines the request/response interface shared by every
// memory-system latency simulator in this repository (caches, DRAM,
// interconnects). Per the paper (§4), these simulators "expose identical
// request/response interfaces, so they can be hierarchically composed":
// an interconnect stacks on a cache, caches stack on each other, and the
// bottom of every stack is a DRAM or fixed-latency port.
//
// The interface is trace-driven: Access is handed the issue time of a
// request and returns its completion time, updating whatever internal
// state (tag arrays, bank timers, outstanding-request windows) the
// component keeps. This models latency and queueing exactly while keeping
// simulation cost at one call per request rather than one event per
// cycle.
package memsys

import (
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Port is a point where memory requests can be issued.
type Port interface {
	// Access issues a request at time `at` and returns its completion
	// time (>= at). Implementations must tolerate non-monotonic issue
	// times across callers but may assume per-caller monotonicity.
	Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time
}

// Fixed is a Port with a constant latency and unlimited bandwidth; it is
// the simplest memory model and also useful as a test double.
type Fixed struct {
	Latency vclock.Duration
}

// Access implements Port.
func (f Fixed) Access(at vclock.Time, _ mem.AccessKind, _ mem.Addr, _ int) vclock.Time {
	return at.Add(f.Latency)
}

// Counter wraps a Port and counts accesses by kind; the cachesim tests
// put it behind a cache to see the traffic the cache sends on.
type Counter struct {
	Inner  Port
	Reads  int64
	Writes int64
	Bytes  int64
}

// Access implements Port.
func (c *Counter) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if kind == mem.Read {
		c.Reads++
	} else {
		c.Writes++
	}
	c.Bytes += int64(size)
	return c.Inner.Access(at, kind, addr, size)
}

// Window models a bounded number of outstanding requests: a request
// issued when the window is full waits for the oldest in-flight request
// to complete. The zero value is unusable; use NewWindow.
type Window struct {
	busy []vclock.Time // completion times, ring buffer semantics via index
	next int
}

// NewWindow returns a window permitting n outstanding requests.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic("memsys: window size must be positive")
	}
	return &Window{busy: make([]vclock.Time, n)}
}

// Admit returns the time at which a request issued at `at` can actually
// start, waiting for a slot if all are busy. Reserve must be called with
// the request's completion time afterwards.
func (w *Window) Admit(at vclock.Time) vclock.Time {
	// The slot that frees earliest is the one we will reuse (FIFO over a
	// fixed-size ring is sufficient because completion times through any
	// single component are non-decreasing for in-order engines; for the
	// rare out-of-order caller we scan for the minimum).
	min := w.busy[0]
	idx := 0
	for i, t := range w.busy {
		if t < min {
			min, idx = t, i
		}
	}
	w.next = idx
	if min > at {
		return min
	}
	return at
}

// Reserve marks the slot chosen by the last Admit as busy until done.
func (w *Window) Reserve(done vclock.Time) {
	w.busy[w.next] = done
}
