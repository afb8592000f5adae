package memsys

import (
	"testing"

	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

func TestFixedLatency(t *testing.T) {
	p := Fixed{Latency: 25 * vclock.Nanosecond}
	if got := p.Access(100, mem.Read, 0, 64); got != vclock.Time(100).Add(25*vclock.Nanosecond) {
		t.Fatalf("Access = %v", got)
	}
}

func TestCounter(t *testing.T) {
	c := &Counter{Inner: Fixed{}}
	c.Access(0, mem.Read, 0, 10)
	c.Access(0, mem.Write, 0, 20)
	if c.Reads != 1 || c.Writes != 1 || c.Bytes != 30 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestWindowAdmitsUpToN(t *testing.T) {
	w := NewWindow(2)
	if at := w.Admit(100); at != 100 {
		t.Fatalf("first admit delayed to %v", at)
	}
	w.Reserve(500)
	if at := w.Admit(100); at != 100 {
		t.Fatalf("second admit delayed to %v", at)
	}
	w.Reserve(600)
	// Third must wait for the earliest completion (500).
	if at := w.Admit(100); at != 500 {
		t.Fatalf("third admit = %v, want 500", at)
	}
	w.Reserve(700)
	inFlight := 0
	for _, done := range w.busy {
		if done > 550 {
			inFlight++
		}
	}
	if inFlight != 2 {
		t.Fatalf("%d requests in flight at 550, want 2", inFlight)
	}
}

func TestWindowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewWindow(0)
}
