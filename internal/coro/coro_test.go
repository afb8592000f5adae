package coro

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"nexsim/internal/vclock"
)

func TestHandshake(t *testing.T) {
	var order []string
	th := NewThread(1, "t", func() {
		order = append(order, "a")
		me.Yield(Request{Op: OpSleep, Dur: 5})
		order = append(order, "b")
	})
	me = th

	r := th.Resume()
	if r.Op != OpSleep || r.Dur != 5 {
		t.Fatalf("first request = %+v", r)
	}
	order = append(order, "engine")
	r = th.Resume()
	if r.Op != OpExit {
		t.Fatalf("second request = %+v", r)
	}
	want := []string{"a", "engine", "b"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v", order)
		}
	}
	if !th.exited {
		t.Fatal("thread not marked exited")
	}
}

// me lets the test thread function reach its own Thread without a
// separate Env plumbing layer.
var me *Thread

func TestResumeAfterExitPanics(t *testing.T) {
	th := NewThread(1, "t", func() {})
	if r := th.Resume(); r.Op != OpExit {
		t.Fatalf("got %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	th.Resume()
}

func TestInteractClosure(t *testing.T) {
	var got uint32
	th := NewThread(2, "t", func() {
		var v uint32
		me2.Yield(Request{Op: OpInteract, Interact: func(at vclock.Time) vclock.Duration {
			v = 42
			return 7
		}})
		got = v
	})
	me2 = th
	r := th.Resume()
	if r.Op != OpInteract {
		t.Fatalf("op = %v", r.Op)
	}
	if d := r.Interact(100); d != 7 {
		t.Fatalf("interact cost = %v", d)
	}
	th.Resume() // let the thread finish
	if got != 42 {
		t.Fatalf("thread saw %d, want value set during interact", got)
	}
}

var me2 *Thread

func TestManyThreadsDeterministic(t *testing.T) {
	// Round-robin resuming 100 threads yields a deterministic sequence.
	run := func() []int {
		var seq []int
		threads := make([]*Thread, 100)
		for i := range threads {
			i := i
			threads[i] = NewThread(i, "w", func() {
				seq = append(seq, i)
			})
		}
		for _, th := range threads {
			if r := th.Resume(); r.Op != OpExit {
				t.Fatalf("unexpected request %+v", r)
			}
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic execution order")
		}
	}
}

func TestKillParkedThreadUnwinds(t *testing.T) {
	deferred := false
	reached := false
	th := NewThread(0, "victim", func() {
		defer func() { deferred = true }()
		th2 := th2ref
		th2.Yield(Request{Op: OpPark})
		reached = true
	})
	th2ref = th
	if r := th.Resume(); r.Op != OpPark {
		t.Fatalf("expected park, got %v", r.Op)
	}
	th.Kill()
	if !th.exited {
		t.Fatal("killed thread not marked exited")
	}
	if !deferred {
		t.Fatal("thread deferred cleanup did not run during kill unwind")
	}
	if reached {
		t.Fatal("thread body continued past the kill point")
	}
}

var th2ref *Thread

func TestKillNeverStartedThread(t *testing.T) {
	th := NewThread(0, "unborn", func() { t.Fatal("must never run") })
	th.Kill()
	if !th.exited {
		t.Fatal("never-started thread not exited after kill")
	}
	th.Kill() // idempotent
}

func TestKillExitedThreadIsNoOp(t *testing.T) {
	th := NewThread(0, "done", func() {})
	if r := th.Resume(); r.Op != OpExit {
		t.Fatalf("expected exit, got %v", r.Op)
	}
	th.Kill()
	if !th.exited {
		t.Fatal("exited flag lost")
	}
}

func TestKillThreadWhoseDeferYields(t *testing.T) {
	// A deferred function that tries to Yield during the kill unwind must
	// keep unwinding, not deadlock the engine.
	th := NewThread(0, "yield-in-defer", func() {
		defer func() {
			th3ref.Yield(Request{Op: OpSleep})
			t.Fatal("yield during kill unwind must not return")
		}()
		th3ref.Yield(Request{Op: OpPark})
	})
	th3ref = th
	if r := th.Resume(); r.Op != OpPark {
		t.Fatalf("expected park, got %v", r.Op)
	}
	th.Kill()
	if !th.exited {
		t.Fatal("thread with yielding defer not killed")
	}
}

var th3ref *Thread

// parkLoop returns a started thread parked in its first Yield; its body
// yields OpPark forever.
func parkLoop(tb testing.TB) *Thread {
	var th *Thread
	th = NewThread(0, "loop", func() {
		for {
			th.Yield(Request{Op: OpPark})
		}
	})
	if r := th.Resume(); r.Op != OpPark {
		tb.Fatalf("expected park, got %v", r.Op)
	}
	return th
}

// BenchmarkSwitch reports the cost of one engine → thread → engine round
// trip (a Resume and the Yield that answers it).
func BenchmarkSwitch(b *testing.B) {
	th := parkLoop(b)
	defer th.Kill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Resume()
	}
}

func TestSwitchDoesNotAllocate(t *testing.T) {
	th := parkLoop(t)
	defer th.Kill()
	if n := testing.AllocsPerRun(1000, func() { th.Resume() }); n != 0 {
		t.Fatalf("Resume+Yield round trip allocates %v times, want 0", n)
	}
}

func TestBodyPanicSurfacesAtResume(t *testing.T) {
	boom := errors.New("boom")
	var th *Thread
	th = NewThread(0, "faulty", func() {
		th.Yield(Request{Op: OpPark})
		panic(boom)
	})
	th.Resume()
	base := runtime.NumGoroutine() // includes the parked coroutine
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Resume re-raised %v, want the body's own panic value", r)
			}
		}()
		th.Resume()
		t.Fatal("Resume returned from a panicking body")
	}()
	if !th.exited {
		t.Fatal("thread whose body panicked is not exited")
	}
	th.Kill() // what an engine's Reap does next: must be a no-op
	if n := runtime.NumGoroutine(); n != base-1 {
		t.Fatalf("%d goroutines after the panic, want %d (coroutine gone)", n, base-1)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has read the
// same count several times in a row: a goroutine an earlier test started
// (TestResumeFromAnotherGoroutine's resumer, under -count) may still be
// exiting when the next test begins.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && same < 5; i++ {
		time.Sleep(100 * time.Microsecond)
		m := runtime.NumGoroutine()
		if m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

func TestKillManyParkedThreadsLeavesNoGoroutine(t *testing.T) {
	base := settledGoroutines()
	unwound := 0
	threads := make([]*Thread, 64)
	for i := range threads {
		var th *Thread
		th = NewThread(i, "parked", func() {
			defer func() { unwound++ }()
			th.Yield(Request{Op: OpPark})
		})
		threads[i] = th
		th.Resume()
	}
	if n := runtime.NumGoroutine(); n != base+len(threads) {
		t.Fatalf("%d goroutines with %d threads parked, want %d", n, len(threads), base+len(threads))
	}
	for _, th := range threads {
		th.Kill()
		th.Kill() // already killed: idempotent
	}
	if unwound != len(threads) {
		t.Fatalf("%d of %d bodies unwound", unwound, len(threads))
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Kill, want %d", n, base)
	}
}

// A thread started on one goroutine and resumed from another after a
// channel handoff: what RestoreCheckpoint → ResumeRun and the simserve
// workers do with a whole engine.
func TestResumeFromAnotherGoroutine(t *testing.T) {
	steps := 0
	var th *Thread
	th = NewThread(0, "migrant", func() {
		for i := 0; i < 3; i++ {
			steps++
			th.Yield(Request{Op: OpSleep, Dur: vclock.Duration(i)})
		}
	})
	if r := th.Resume(); r.Dur != 0 {
		t.Fatalf("first request = %+v", r)
	}
	handoff := make(chan *Thread)
	done := make(chan []Request)
	go func() {
		th := <-handoff
		done <- []Request{th.Resume(), th.Resume(), th.Resume()}
	}()
	handoff <- th
	got := <-done
	if got[0].Dur != 1 || got[1].Dur != 2 || got[2].Op != OpExit {
		t.Fatalf("requests seen from the second goroutine = %+v", got)
	}
	if steps != 3 || !th.exited {
		t.Fatalf("steps = %d, exited = %v", steps, th.exited)
	}
}
