package devkit

import "nexsim/internal/vclock"

// Pipeline is what an RTL-style model gives its Clock to step.
type Pipeline interface {
	// Busy reports whether any unit holds or awaits work.
	Busy() bool
	// Step advances every unit by the clock cycle Cycle.
	Step()
}

// Clock is an RTL-style model's cycle counter and its Advance: while the
// pipeline is busy every clock cycle is an explicit Step, as under
// Verilator.
type Clock struct {
	// Cycle is the current device cycle.
	Cycle int64

	hz   vclock.Hz
	pipe Pipeline
}

// Init sets the clock rate and the pipeline Advance steps.
func (c *Clock) Init(hz vclock.Hz, p Pipeline) { c.hz, c.pipe = hz, p }

// TimeAt converts a device cycle to virtual time.
func (c *Clock) TimeAt(cycle int64) vclock.Time {
	return vclock.Time(0).Add(c.hz.CyclesDur(cycle))
}

// CyclesAt converts virtual time to device cycles.
func (c *Clock) CyclesAt(t vclock.Time) int64 { return c.hz.Cycles(t.Sub(0)) }

// Advance implements accel.Device: step the pipeline once per cycle up
// to time t, and stop stepping as soon as it goes idle.
func (c *Clock) Advance(t vclock.Time) {
	target := c.CyclesAt(t)
	for ; c.Cycle <= target && c.pipe.Busy(); c.Cycle++ {
		c.pipe.Step()
	}
	c.Cycle = max(c.Cycle, target+1)
}

// Queue is a FIFO popped by head index. Its backing array is reused —
// from the start once the queue drains, and by sliding the live items
// down when a push finds it full — where q = q[1:] gives up the consumed
// capacity and makes a later append allocate again.
type Queue[T any] struct {
	items []T // the queue is items[head:]
	head  int
}

// Len is the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Front is the oldest item; the pointer is good until the next Push.
func (q *Queue[T]) Front() *T { return &q.items[q.head] }

// Pop drops the oldest item.
func (q *Queue[T]) Pop() {
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// Push appends v and returns the queued copies, good until the next
// Push.
func (q *Queue[T]) Push(v ...T) []T {
	if q.head > 0 && len(q.items)+len(v) > cap(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	q.items = append(q.items, v...)
	return q.items[len(q.items)-len(v):]
}
