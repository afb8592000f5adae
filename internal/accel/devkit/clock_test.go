package devkit

import "testing"

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
