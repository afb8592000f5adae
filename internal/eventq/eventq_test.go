package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nexsim/internal/vclock"
)

func TestFIFOAtSameTime(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(100, func(vclock.Time) { order = append(order, i) })
	}
	drain(&q)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	var fired []vclock.Time
	times := []vclock.Time{50, 10, 30, 10, 90, 0}
	for _, at := range times {
		at := at
		q.At(at, func(now vclock.Time) {
			if now != at {
				t.Errorf("fired at %v, scheduled for %v", now, at)
			}
			fired = append(fired, now)
		})
	}
	drain(&q)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	var q Queue
	q.At(100, func(vclock.Time) {})
	drain(&q)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.At(50, func(vclock.Time) {})
}

func TestEventsCanScheduleEvents(t *testing.T) {
	var q Queue
	count := 0
	var step func(now vclock.Time)
	step = func(now vclock.Time) {
		count++
		if count < 5 {
			q.At(now+10, step)
		}
	}
	q.At(0, step)
	drain(&q)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if q.Now() != 40 {
		t.Fatalf("Now = %v, want 40", q.Now())
	}
}

func TestNextTime(t *testing.T) {
	var q Queue
	if _, ok := q.NextTime(); ok {
		t.Fatal("NextTime reported event on empty queue")
	}
	q.At(42, func(vclock.Time) {})
	if at, ok := q.NextTime(); !ok || at != 42 {
		t.Fatalf("NextTime = %v,%v", at, ok)
	}
	q.Step()
	if _, ok := q.NextTime(); ok {
		t.Fatal("NextTime reported a dispatched event")
	}
}

// Property: dispatch order is a stable sort of (time, insertion order).
func TestDispatchOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		type rec struct {
			at  vclock.Time
			seq int
		}
		var scheduled, fired []rec
		for i := 0; i < int(n); i++ {
			at := vclock.Time(r.Intn(16))
			scheduled = append(scheduled, rec{at, i})
			i := i
			q.At(at, func(now vclock.Time) { fired = append(fired, rec{now, i}) })
		}
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		drain(&q)
		if len(fired) != len(scheduled) {
			return false
		}
		for i := range fired {
			if fired[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// drain dispatches events until the queue is empty.
func drain(q *Queue) {
	for q.Step() {
	}
}
