package devkit

import (
	"slices"
	"testing"

	"nexsim/internal/vclock"
)

// busyThrough is a Pipeline that holds work through cycle last and logs
// the cycles it is stepped at.
type busyThrough struct {
	clk     *Clock
	last    int64
	stepped []int64
}

func (p *busyThrough) Busy() bool { return p.clk.Cycle <= p.last }
func (p *busyThrough) Step()      { p.stepped = append(p.stepped, p.clk.Cycle) }

// TestClockStepsEveryBusyCycle: Advance steps once per cycle from Cycle
// through the earlier of the target and the last busy cycle, leaves
// Cycle at target+1, never steps an idle pipeline, and ignores a target
// before the current cycle.
func TestClockStepsEveryBusyCycle(t *testing.T) {
	var c Clock
	p := &busyThrough{clk: &c, last: 9}
	c.Init(vclock.GHz, p) // one cycle per nanosecond
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
