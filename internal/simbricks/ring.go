package simbricks

import (
	"runtime"
	"sync/atomic"
)

// Ring is a bounded single-producer single-consumer byte-message queue.
// One goroutine may Push while another Pops: the atomic head/tail
// counters carry the happens-before edges, so a message's bytes are
// fully visible to the consumer before it observes the message. This is
// the shared-memory ring of the SimBricks channel (§5), whose two ends
// are separate simulator processes in SimBricks; here both ends run on
// the engine's goroutine, but the ring keeps the cross-goroutine
// contract.
//
// Records never straddle the end of the buffer: a producer that cannot
// fit a record before the end publishes a wrap marker and continues at
// offset 0. All records are 4-byte aligned so the marker always fits.
type Ring struct {
	buf []byte
	// head/tail are monotonically increasing byte counts; position in
	// the buffer is counter mod len(buf). head is written only by the
	// producer, tail only by the consumer.
	head atomic.Int64
	tail atomic.Int64
}

const ringWrap = ^uint32(0)

// NewRing builds a ring with the given capacity (rounded up to a
// multiple of 4; default 256KB). Capacity bounds the largest message:
// a record of header+payload larger than the capacity panics.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = 256 << 10
	}
	size = (size + 3) &^ 3
	return &Ring{buf: make([]byte, size)}
}

// Cap returns the ring capacity in bytes.
func (r *Ring) Cap() int { return len(r.buf) }

// align4 rounds n up to a multiple of 4 so records and wrap markers
// stay aligned.
func align4(n int) int { return (n + 3) &^ 3 }

// Push appends one message, blocking (spinning with yields) while the
// ring is full. It must be called from a single producer goroutine.
func (r *Ring) Push(p []byte) {
	need := 4 + align4(len(p))
	if need+4 > len(r.buf) {
		panic("simbricks: message larger than ring capacity")
	}
	for {
		head := r.head.Load()
		tail := r.tail.Load()
		pos := int(head % int64(len(r.buf)))
		// A wrap consumes the rest of the buffer; account for the worst
		// case so head never laps tail.
		avail := len(r.buf) - int(head-tail)
		if rest := len(r.buf) - pos; rest < need {
			if avail < rest+need {
				runtime.Gosched()
				continue
			}
			putLen(r.buf[pos:], ringWrap)
			head += int64(rest)
			pos = 0
		} else if avail < need {
			runtime.Gosched()
			continue
		}
		putLen(r.buf[pos:], uint32(len(p)))
		copy(r.buf[pos+4:], p)
		r.head.Store(head + int64(need))
		return
	}
}

// next blocks (spinning with yields) until a message is readable,
// skipping wrap markers, and returns the tail counter of its record and
// a view of its payload. The message stays in the ring: the consumer
// frees it with release once it is done reading.
func (r *Ring) next() (int64, []byte) {
	for {
		tail := r.tail.Load()
		if r.head.Load() == tail {
			runtime.Gosched()
			continue
		}
		pos := int(tail % int64(len(r.buf)))
		n := getLen(r.buf[pos:])
		if n == ringWrap {
			r.tail.Store(tail + int64(len(r.buf)-pos))
			continue
		}
		return tail, r.buf[pos+4 : pos+4+int(n)]
	}
}

// release frees the record at tail whose payload is p for the producer.
func (r *Ring) release(tail int64, p []byte) {
	r.tail.Store(tail + int64(4+align4(len(p))))
}

// Pop consumes one message, blocking (spinning with yields) while the
// ring is empty. The consume callback sees a view into the ring that is
// only valid for the duration of the call: the record is released only
// after consume returns. It must be called from a single consumer
// goroutine.
func (r *Ring) Pop(consume func(p []byte)) {
	tail, p := r.next()
	consume(p)
	r.release(tail, p)
}

// popRaw consumes one message and returns a view into the ring,
// blocking while the ring is empty. Unlike Pop's callback view, the
// returned slice stays readable until the producer has pushed a full
// ring capacity of further bytes past it — Channel relies on this under
// its synchronous roundTrip discipline.
func (r *Ring) popRaw() []byte {
	tail, p := r.next()
	r.release(tail, p)
	return p
}

// Len reports the number of unread payload bytes (including framing).
func (r *Ring) Len() int { return int(r.head.Load() - r.tail.Load()) }

func putLen(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getLen(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
