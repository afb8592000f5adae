package vta

// queue is a FIFO popped by head index. Its backing array is reused —
// from the start once the queue drains, and by sliding the live items
// down when a push finds it full — where q = q[1:] gives up the consumed
// capacity and makes a later append allocate again (once per task, on the
// module queues).
type queue[T any] struct {
	items []T // the queue is items[head:]
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

// front is the oldest item; the pointer is good until the next push.
func (q *queue[T]) front() *T { return &q.items[q.head] }

func (q *queue[T]) pop() {
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

func (q *queue[T]) push(v ...T) {
	if q.head > 0 && len(q.items)+len(v) > cap(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	q.items = append(q.items, v...)
}
