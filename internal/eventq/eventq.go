// Package eventq implements the deterministic discrete-event queue that
// drives the exact host engine (internal/exacthost).
//
// Events scheduled for the same virtual time fire in the order they were
// scheduled (FIFO per timestamp), which — together with single-threaded
// engines — makes every simulation run bit-reproducible. A scheduled
// event always fires: there is no cancellation, so the heap holds only
// live events and Len is its length.
package eventq

import (
	"container/heap"

	"nexsim/internal/vclock"
)

// Event is a callback scheduled at a point in virtual time.
type Event func(now vclock.Time)

type item struct {
	at  vclock.Time
	seq uint64
	fn  Event
}

// Queue is a deterministic min-heap of timed events. The zero value is
// ready to use.
type Queue struct {
	h   itemHeap
	seq uint64
	now vclock.Time
}

// Now returns the time of the most recently dispatched event.
func (q *Queue) Now() vclock.Time { return q.now }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before the last dispatched event) panics: it would violate causality.
func (q *Queue) At(at vclock.Time, fn Event) {
	if at < q.now {
		panic("eventq: scheduling event in the past")
	}
	q.seq++
	heap.Push(&q.h, &item{at: at, seq: q.seq, fn: fn})
}

// NextTime returns the time of the earliest pending event, or
// (vclock.Never, false) if the queue is empty.
func (q *Queue) NextTime() (vclock.Time, bool) {
	if len(q.h) == 0 {
		return vclock.Never, false
	}
	return q.h[0].at, true
}

// Step dispatches the single earliest event, advancing Now to its time.
// It reports whether an event was dispatched.
//
//simlint:hotpath one call per simulation event
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	it := heap.Pop(&q.h).(*item)
	q.now = it.at
	it.fn(it.at)
	return true
}

type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *itemHeap) Push(x any) { *h = append(*h, x.(*item)) }

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
