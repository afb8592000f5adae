package app_test

import (
	"testing"

	"nexsim/internal/app"
	"nexsim/internal/exacthost"
	"nexsim/internal/vclock"
)

// run executes a program on an exact-time engine (the simplest host).
func run(t *testing.T, cores int, main app.ThreadFunc) vclock.Duration {
	t.Helper()
	e := exacthost.New(exacthost.Config{Cores: cores})
	return e.Run(app.Program{Main: main})
}

func TestBarrierReuseAcrossGenerations(t *testing.T) {
	b := &app.Barrier{N: 2}
	phases := make([][]vclock.Time, 2)
	run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			e.Spawn("w", func(we app.Env) {
				for p := 0; p < 3; p++ {
					we.ComputeFor(vclock.Duration(i+1) * vclock.Microsecond)
					b.Wait(we)
					phases[i] = append(phases[i], we.Now())
				}
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	for p := 0; p < 3; p++ {
		if phases[0][p] != phases[1][p] {
			t.Fatalf("phase %d: threads released at %v vs %v", p, phases[0][p], phases[1][p])
		}
	}
}

func TestBarrierZeroNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := &app.Barrier{}
	b.Wait(nil) // panics before touching the env
}

func TestQueueCloseReleasesWaiters(t *testing.T) {
	q := &app.Queue{}
	drained := 0
	run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(3)
		for i := 0; i < 2; i++ {
			e.Spawn("consumer", func(we app.Env) {
				for {
					if _, ok := q.Pop(we); !ok {
						break
					}
					drained++
				}
				wg.Done(we)
			})
		}
		e.Spawn("producer", func(we app.Env) {
			we.ComputeFor(vclock.Microsecond)
			q.Push(we, 1)
			q.Push(we, 2)
			q.Close(we)
			wg.Done(we)
		})
		wg.Wait(e)
	})
	if drained != 2 {
		t.Fatalf("drained = %d", drained)
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	q := &app.Queue{}
	run(t, 1, func(e app.Env) { q.Close(e) })
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Push(nil, 1) // closed: panics before touching the env
}

func TestMutexFIFOOrder(t *testing.T) {
	var mu app.Mutex
	var order []int
	run(t, 8, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(4)
		mu.Lock(e)
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("w", func(we app.Env) {
				// Stagger arrival so the wait queue order is determined.
				we.ComputeFor(vclock.Duration(i+1) * vclock.Microsecond)
				mu.Lock(we)
				order = append(order, i)
				mu.Unlock(we)
				wg.Done(we)
			})
		}
		e.ComputeFor(10 * vclock.Microsecond)
		mu.Unlock(e)
		wg.Wait(e)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("lock order %v, want FIFO", order)
		}
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var mu app.Mutex
	mu.Unlock(nil) // panics before touching the env
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var wg app.WaitGroup
	wg.Done(nil) // panics before touching the env
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	// Wait on a zero counter returns immediately.
	d := run(t, 1, func(e app.Env) {
		var wg app.WaitGroup
		wg.Wait(e)
		e.ComputeFor(vclock.Microsecond)
	})
	if d != vclock.Microsecond {
		t.Fatalf("SimTime = %v", d)
	}
}

func TestPendingUnparkBeforePark(t *testing.T) {
	// An unpark delivered while the target is runnable must make its
	// next Park return immediately (no lost wakeup).
	run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(1)
		target := e.Spawn("sleeper", func(we app.Env) {
			we.ComputeFor(5 * vclock.Microsecond) // still running when unparked
			we.Park()                             // must not block forever
			wg.Done(we)
		})
		e.ComputeFor(1 * vclock.Microsecond)
		e.Unpark(target)
		wg.Wait(e)
	})
}

func TestNestedSpawn(t *testing.T) {
	depth := 0
	run(t, 8, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(1)
		e.Spawn("a", func(ae app.Env) {
			var wg2 app.WaitGroup
			wg2.Add(1)
			ae.Spawn("b", func(be app.Env) {
				depth = 2
				wg2.Done(be)
			})
			wg2.Wait(ae)
			wg.Done(ae)
		})
		wg.Wait(e)
	})
	if depth != 2 {
		t.Fatal("nested spawn did not run")
	}
}
