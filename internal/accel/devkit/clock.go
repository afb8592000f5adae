package devkit

import "nexsim/internal/vclock"

// Pipeline is what an RTL-style model gives its Clock to step.
type Pipeline interface {
	// Step advances every unit by the clock cycle Cycle.
	Step()
}

// Clock is an RTL-style model's cycle counter, its Advance and its
// NextEvent. It owns the model's units: while any of them holds or
// awaits work every clock cycle is an explicit Step, as under Verilator,
// and the next event is read off the units, so a model writes only its
// Step.
type Clock struct {
	// Cycle is the current device cycle.
	Cycle int64

	period vclock.Duration
	pipe   Pipeline
	units  []unit
	work   int // items queued or in service across all units
}

// unit is what the Clock asks of a Unit[T] for NextEvent.
type unit interface {
	nextEvent() int64
}

// Init sets the clock rate and the pipeline Advance steps.
func (c *Clock) Init(hz vclock.Hz, p Pipeline) { c.period, c.pipe = hz.Period(), p }

// TimeAt converts a device cycle to virtual time (hz.CyclesDur, with the
// period's division done once, in Init: a model asks every cycle).
func (c *Clock) TimeAt(cycle int64) vclock.Time {
	return vclock.Time(0).Add(vclock.Duration(cycle) * c.period)
}

// CyclesAt converts virtual time to device cycles, rounding down.
func (c *Clock) CyclesAt(t vclock.Time) int64 { return int64(t.Sub(0)) / int64(c.period) }

// Busy reports whether any unit holds or awaits work.
func (c *Clock) Busy() bool { return c.work > 0 }

// Advance implements accel.Device: step the pipeline once per cycle up
// to time t, and stop stepping as soon as it goes idle.
func (c *Clock) Advance(t vclock.Time) {
	target := c.CyclesAt(t)
	for ; c.Cycle <= target && c.Busy(); c.Cycle++ {
		c.pipe.Step()
	}
	c.Cycle = max(c.Cycle, target+1)
}

// NextEvent implements accel.Device: the earliest of every busy
// server's completion cycle and, for each unit with a free server and a
// waiting head, the later of Cycle and the head's gate, clamped to
// Cycle. It does not ask what else a model's Step checks before a start
// (VTA's dependency tokens): the answer is never later than the next
// state change, which is all a host needs of it.
func (c *Clock) NextEvent() (vclock.Time, bool) {
	if c.work == 0 {
		return vclock.Never, false
	}
	next := int64(idle)
	for _, u := range c.units {
		next = min(next, u.nextEvent())
	}
	return c.TimeAt(max(next, c.Cycle)), true
}

// Unit is one unit of an RTL-style pipeline: a Queue of waiting items
// and n servers, each holding one item until a cycle. Its Clock counts
// the items, so the kit answers Busy and NextEvent for the model. A
// model's Step frees a server with Done and fills it with Next and
// Start, in whatever order its hardware does.
type Unit[T any] struct {
	q    Queue[waiting[T]]
	srv  []server[T]
	held int   // servers holding an item
	due  int64 // the earliest until of a held server, or idle
	clk  *Clock
}

// waiting is a queued item and the earliest cycle it may start.
type waiting[T any] struct {
	item T
	gate int64
}

// server holds item until cycle until; a free server's until is idle.
type server[T any] struct {
	item  T
	until int64
}

const idle = 1<<63 - 1

// Init gives the unit n servers and registers it with c. Call once,
// before first use; the unit must not move after.
func (u *Unit[T]) Init(c *Clock, n int) {
	u.srv, u.due, u.clk = make([]server[T], n), idle, c
	for i := range u.srv {
		u.srv[i].until = idle
	}
	c.units = append(c.units, u)
}

// Push queues v behind the waiting items, free to start at once.
//
//simlint:hotpath once per item handed from one pipeline unit to the next
func (u *Unit[T]) Push(v ...T) { u.PushGated(0, v...) }

// PushGated queues v behind the waiting items; none may start before
// cycle gate (VTA's instruction fetch).
//
//simlint:hotpath once per item handed from one pipeline unit to the next
func (u *Unit[T]) PushGated(gate int64, v ...T) {
	u.clk.work += len(v)
	for i := range v {
		u.q.Push(waiting[T]{v[i], gate})
	}
}

// Done frees server s and returns its item if the item's cycle has come,
// or nil. The item is good until server s next starts one.
//
//simlint:hotpath once per server of every unit on every stepped cycle
func (u *Unit[T]) Done(s int) *T {
	if u.clk.Cycle < u.due {
		return nil
	}
	return u.release(s)
}

// release is Done once some server's cycle has come.
func (u *Unit[T]) release(s int) *T {
	sv := &u.srv[s]
	if u.clk.Cycle < sv.until {
		return nil
	}
	sv.until = idle
	u.held--
	u.clk.work--
	u.due = idle
	for i := range u.srv {
		u.due = min(u.due, u.srv[i].until)
	}
	return &sv.item
}

// Next returns the head item if server s is free and the head's gate
// has passed, or nil. It stays queued until Start.
//
//simlint:hotpath once per server of every unit on every stepped cycle
func (u *Unit[T]) Next(s int) *T {
	if u.q.Len() == 0 || u.srv[s].until != idle {
		return nil
	}
	if w := u.q.Front(); w.gate <= u.clk.Cycle {
		return &w.item
	}
	return nil
}

// Active reports whether Done or Next may return an item at Cycle. A
// Step may stop walking a unit's servers once it is not: the rest would
// return nil.
//
//simlint:hotpath once per server of a multi-server unit on every stepped cycle
func (u *Unit[T]) Active() bool {
	return u.clk.Cycle >= u.due || u.held < len(u.srv) && u.q.Len() > 0 && u.q.Front().gate <= u.clk.Cycle
}

// Start moves the head item into server s, which Next returned it for,
// and holds it there until cycle until.
//
//simlint:hotpath once per item a unit starts
func (u *Unit[T]) Start(s int, until int64) {
	u.srv[s] = server[T]{item: u.q.Front().item, until: until}
	u.held++
	u.due = min(u.due, until)
	u.q.Pop()
}

// nextEvent is the unit's part of Clock.NextEvent.
func (u *Unit[T]) nextEvent() int64 {
	if u.held < len(u.srv) && u.q.Len() > 0 {
		return min(u.due, max(u.clk.Cycle, u.q.Front().gate))
	}
	return u.due
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
