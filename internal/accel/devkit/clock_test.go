package devkit

import (
	"slices"
	"testing"

	"nexsim/internal/vclock"
)

// busyThrough is a Pipeline whose one unit holds one item, the cycle
// its server holds it through, and which logs the cycles it is stepped
// at.
type busyThrough struct {
	clk     *Clock
	u       Unit[int64]
	stepped []int64
}

func (p *busyThrough) Step() {
	p.stepped = append(p.stepped, p.clk.Cycle)
	p.u.Done(0)
	if last := p.u.Next(0); last != nil {
		p.u.Start(0, *last)
	}
}

// TestClockStepsEveryBusyCycle: Advance steps once per cycle from Cycle
// through the earlier of the target and the last busy cycle, leaves
// Cycle at target+1, never steps an idle pipeline, and ignores a target
// before the current cycle.
func TestClockStepsEveryBusyCycle(t *testing.T) {
	var c Clock
	p := &busyThrough{clk: &c}
	c.Init(vclock.GHz, p) // one cycle per nanosecond
	p.u.Init(&c, 1)
	p.u.Push(9) // busy through cycle 9
	ns := func(n int64) vclock.Time { return vclock.Time(n * int64(vclock.Nanosecond)) }
	cycles := func(from, through int64) []int64 {
		var s []int64
		for n := from; n <= through; n++ {
			s = append(s, n)
		}
		return s
	}

	for _, step := range []struct {
		name      string
		to        int64 // target, in cycles
		wantCycle int64
		wantSteps []int64 // cycles stepped by this Advance
	}{
		{"busy through the target", 4, 5, cycles(0, 4)},
		{"goes idle before the target", 20, 21, cycles(5, 9)},
		{"target before the current cycle", 3, 21, nil},
		{"idle", 30, 31, nil},
	} {
		p.stepped = nil
		c.Advance(ns(step.to))
		if c.Cycle != step.wantCycle || !slices.Equal(p.stepped, step.wantSteps) {
			t.Fatalf("%s: Advance to cycle %d left Cycle %d and stepped %v, want Cycle %d and steps %v",
				step.name, step.to, c.Cycle, p.stepped, step.wantCycle, step.wantSteps)
		}
	}
}

// TestClockNextEvent pins the one next-event rule every RTL model gets
// from its Clock: the earliest of every busy server's completion and,
// for each unit with a free server and a waiting head, the later of
// Cycle and the head's gate, clamped to Cycle; (Never, false) when no
// unit holds or awaits work. A unit is Active exactly when its part of
// that answer is Cycle itself.
func TestClockNextEvent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cycle int64
		load  func(gated, pair *Unit[int64]) // at cycle 0
		want  int64                          // cycle; -1 = idle
	}{
		{"idle", 10, func(gated, pair *Unit[int64]) {}, -1},
		{"gated head waits for its gate", 10, func(gated, pair *Unit[int64]) {
			gated.PushGated(50, 1)
		}, 50},
		{"a gate already passed starts at Cycle", 10, func(gated, pair *Unit[int64]) {
			gated.PushGated(3, 1)
		}, 10},
		{"gated head behind a busy server waits for the server", 10, func(gated, pair *Unit[int64]) {
			gated.Push(1)
			gated.PushGated(12, 2)
			gated.Start(0, 40)
		}, 40},
		{"both servers busy, items waiting: the smaller busy-until", 10, func(gated, pair *Unit[int64]) {
			pair.Push(1, 2, 3, 4)
			pair.Start(0, 30)
			pair.Start(1, 20)
		}, 20},
		{"the smaller busy-until started first", 10, func(gated, pair *Unit[int64]) {
			pair.Push(1, 2, 3)
			pair.Start(0, 20)
			pair.Start(1, 30)
		}, 20},
		{"one server free, items waiting: Cycle", 10, func(gated, pair *Unit[int64]) {
			pair.Push(1, 2)
			pair.Start(0, 30)
		}, 10},
		{"a completion already due is clamped to Cycle", 10, func(gated, pair *Unit[int64]) {
			pair.Push(1)
			pair.Start(1, 5)
		}, 10},
	} {
		var c Clock
		c.Init(vclock.GHz, nil)
		var gated, pair Unit[int64]
		gated.Init(&c, 1)
		pair.Init(&c, 2)
		tc.load(&gated, &pair)
		c.Cycle = tc.cycle
		at, ok := c.NextEvent()
		want, wantOK := vclock.Never, tc.want >= 0
		if wantOK {
			want = c.TimeAt(tc.want)
		}
		if at != want || ok != wantOK || c.Busy() != wantOK {
			t.Errorf("%s: NextEvent = (%v, %v), Busy %v, want (%v, %v)", tc.name, at, ok, c.Busy(), want, wantOK)
		}
		if active := gated.Active() || pair.Active(); active != (tc.want == tc.cycle) {
			t.Errorf("%s: Active %v with the next event at cycle %d of %d", tc.name, active, tc.want, tc.cycle)
		}
	}
}

// TestQueueReusesItsArray: draining a queue, or pushing onto one whose
// head has moved on, does not allocate, and order survives the slide.
func TestQueueReusesItsArray(t *testing.T) {
	var q Queue[int]
	q.Push(1, 2, 3, 4)
	q.Pop()
	q.Pop()
	q.Push(5, 6) // full: slides 3, 4 down
	if cap(q.items) != 4 {
		t.Fatalf("pushing 2 onto 2 live items of capacity 4 grew it to %d", cap(q.items))
	}
	for want := 3; want <= 6; want++ {
		if q.Len() != 7-want || *q.Front() != want {
			t.Fatalf("len %d front %d, want len %d front %d", q.Len(), *q.Front(), 7-want, want)
		}
		q.Pop()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		q.Push(7, 8, 9)
		q.Pop()
		q.Pop()
		q.Pop()
	}); allocs != 0 || q.Len() != 0 {
		t.Fatalf("a drained queue allocated %v times per refill, len %d", allocs, q.Len())
	}
}
