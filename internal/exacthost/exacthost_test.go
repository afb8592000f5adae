package exacthost

import (
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/app"
	"nexsim/internal/hostkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

const ms = vclock.Millisecond

func run(t *testing.T, cores int, main app.ThreadFunc) Result {
	t.Helper()
	e := New(Config{Cores: cores})
	return e.Run(app.Program{Name: "test", Main: main})
}

func TestSingleThreadCompute(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		e.ComputeFor(5 * ms)
		e.ComputeFor(3 * ms)
	})
	if res.SimTime != 8*ms {
		t.Fatalf("SimTime = %v, want 8ms", res.SimTime)
	}
}

func TestParallelThreadsOverlap(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(3)
		for i := 0; i < 3; i++ {
			e.Spawn("w", func(we app.Env) {
				we.ComputeFor(10 * ms)
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	if res.SimTime != 10*ms {
		t.Fatalf("SimTime = %v, want 10ms (parallel)", res.SimTime)
	}
}

func TestOversubscribedSerializes(t *testing.T) {
	res := run(t, 1, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			e.Spawn("w", func(we app.Env) {
				we.ComputeFor(10 * ms)
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	if res.SimTime != 20*ms {
		t.Fatalf("SimTime = %v, want 20ms (1 core, 2 threads)", res.SimTime)
	}
}

func TestCFSSharesFairly(t *testing.T) {
	// 4 threads, 2 cores, equal work: everything finishes around 2x the
	// single-thread time, and no thread starves.
	res := run(t, 2, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			e.Spawn("w", func(we app.Env) {
				for j := 0; j < 10; j++ {
					we.ComputeFor(1 * ms)
				}
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	if res.SimTime != 20*ms {
		t.Fatalf("SimTime = %v, want 20ms", res.SimTime)
	}
}

func TestSleep(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		e.Sleep(7 * ms)
	})
	if res.SimTime != 7*ms {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
}

func TestMutexSerializes(t *testing.T) {
	var mu app.Mutex
	res := run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			e.Spawn("w", func(we app.Env) {
				mu.Lock(we)
				we.ComputeFor(5 * ms)
				mu.Unlock(we)
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	if res.SimTime != 10*ms {
		t.Fatalf("SimTime = %v, want 10ms (critical sections serialized)", res.SimTime)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	b := &app.Barrier{N: 3}
	var maxAfter vclock.Time
	res := run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(3)
		for i := 0; i < 3; i++ {
			d := vclock.Duration(i+1) * ms
			e.Spawn("w", func(we app.Env) {
				we.ComputeFor(d)
				b.Wait(we)
				if now := we.Now(); now > maxAfter {
					maxAfter = now
				}
				wg.Done(we)
			})
		}
		wg.Wait(e)
	})
	// All threads pass the barrier at the slowest arrival: 3ms.
	if maxAfter != vclock.Time(3*ms) {
		t.Fatalf("barrier released at %v, want 3ms", maxAfter)
	}
	if res.SimTime != 3*ms {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	q := &app.Queue{}
	var got []int
	run(t, 4, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		e.Spawn("prod", func(we app.Env) {
			for i := 0; i < 5; i++ {
				we.ComputeFor(1 * ms)
				q.Push(we, i)
			}
			q.Close(we)
			wg.Done(we)
		})
		e.Spawn("cons", func(we app.Env) {
			for {
				v, ok := q.Pop(we)
				if !ok {
					break
				}
				got = append(got, v.(int))
			}
			wg.Done(we)
		})
		wg.Wait(e)
	})
	if len(got) != 5 {
		t.Fatalf("consumed %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestJumpTCostsNothing(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		e.ComputeFor(2 * ms)
		e.JumpT(func() {
			e.ComputeFor(100 * ms) // instrumentation outside virtual time
		})
		e.ComputeFor(3 * ms)
	})
	if res.SimTime != 5*ms {
		t.Fatalf("SimTime = %v, want 5ms", res.SimTime)
	}
}

func TestCompressTScales(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		e.CompressT(10, func() {
			e.ComputeFor(50 * ms)
		})
	})
	if res.SimTime != 5*ms {
		t.Fatalf("SimTime = %v, want 5ms (10x compression)", res.SimTime)
	}
}

func TestNestedCompressT(t *testing.T) {
	res := run(t, 4, func(e app.Env) {
		e.CompressT(2, func() {
			e.CompressT(5, func() {
				e.ComputeFor(100 * ms)
			})
		})
	})
	if res.SimTime != 10*ms {
		t.Fatalf("SimTime = %v, want 10ms (2*5 compression)", res.SimTime)
	}
}

func TestDevicePolling(t *testing.T) {
	e := New(Config{Cores: 4})
	dev := &acceltest.Device{Busy: 10 * ms}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096,
		MMIOCost: 1 * vclock.Microsecond}
	dev.Host = e.HostFor(b)
	e.Attach(b)

	res := e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1) // doorbell
		for env.MMIORead(0x8000_0000) == 0 {
			env.Sleep(1 * ms)
		}
	}})
	// Doorbell at 1us (after MMIO cost... write completes at 1us), device
	// busy 10ms; polling discovers it on the poll after 10ms.
	if res.SimTime < 10*ms || res.SimTime > 12*ms {
		t.Fatalf("SimTime = %v, want ~10-12ms", res.SimTime)
	}
	if dev.Started != 1 {
		t.Fatalf("device started %d tasks", dev.Started)
	}
}

func TestDeviceIRQ(t *testing.T) {
	e := New(Config{Cores: 4})
	dev := &acceltest.Device{Busy: 10 * ms, IRQ: 5}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096,
		MMIOCost: 1 * vclock.Microsecond}
	dev.Host = e.HostFor(b)
	e.Attach(b)

	res := e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		env.WaitIRQ(5)
		if env.MMIORead(0x8000_0000) != 1 {
			t.Error("status not set at IRQ time")
		}
	}})
	// The doorbell reaches the device when the MMIO transaction starts
	// (t=0); the device is busy 10ms; the IRQ wakes the thread at 10ms,
	// and the final status read adds one MMIO cost.
	want := vclock.Duration(10*ms + 1*vclock.Microsecond)
	if res.SimTime != want {
		t.Fatalf("SimTime = %v, want %v", res.SimTime, want)
	}
	if e.IRQs != 1 {
		t.Fatalf("IRQs = %d", e.IRQs)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() vclock.Duration {
		var mu app.Mutex
		q := &app.Queue{}
		e := New(Config{Cores: 2})
		return e.Run(app.Program{Main: func(env app.Env) {
			var wg app.WaitGroup
			wg.Add(4)
			for i := 0; i < 3; i++ {
				env.Spawn("w", func(we app.Env) {
					for j := 0; j < 20; j++ {
						mu.Lock(we)
						we.ComputeFor(100 * vclock.Microsecond)
						mu.Unlock(we)
						q.Push(we, j)
					}
					wg.Done(we)
				})
			}
			env.Spawn("drain", func(we app.Env) {
				for i := 0; i < 60; i++ {
					q.Pop(we)
				}
				wg.Done(we)
			})
			wg.Wait(env)
		}}).SimTime
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("zero sim time")
	}
}

func TestTaskBufferProtectionHookFires(t *testing.T) {
	e := New(Config{Cores: 1})
	region := e.Mem().Alloc("taskbuf", 4096)
	hooks := 0
	e.Mem().Protect(region, func(mem.AccessKind, mem.Addr, int) { hooks++ })
	e.Run(app.Program{Main: func(env app.Env) {
		var buf [8]byte
		env.TaskWrite(region.Base, buf[:])
		env.TaskRead(region.Base, buf[:])
	}})
	if hooks != 2 {
		t.Fatalf("protection hooks fired %d times, want 2", hooks)
	}
}

func TestCFSWakePlacement(t *testing.T) {
	// A thread that slept a long time must not starve currently running
	// threads on wake (its vruntime is aligned to the minimum, not kept
	// from the past): after waking it shares the single core roughly
	// fairly rather than monopolizing it.
	var sleeperDone, spinnerDone vclock.Time
	run(t, 1, func(e app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		e.Spawn("sleeper", func(we app.Env) {
			we.Sleep(50 * ms)
			for i := 0; i < 10; i++ {
				we.ComputeFor(1 * ms)
			}
			sleeperDone = we.Now()
			wg.Done(we)
		})
		e.Spawn("spinner", func(we app.Env) {
			for i := 0; i < 60; i++ {
				we.ComputeFor(1 * ms)
			}
			spinnerDone = we.Now()
			wg.Done(we)
		})
		wg.Wait(e)
	})
	// Total work 70ms on one core; both finish near the end — the woken
	// sleeper interleaves with the spinner rather than running behind it.
	if sleeperDone >= vclock.Time(70*ms) {
		t.Fatalf("sleeper finished last at %v (monopolized or starved)", sleeperDone)
	}
	if spinnerDone != vclock.Time(70*ms) {
		t.Fatalf("spinner done at %v, want 70ms", spinnerDone)
	}
}

func TestStickyIRQExact(t *testing.T) {
	// An interrupt raised before anyone waits must be latched.
	e := New(Config{Cores: 2})
	dev := &acceltest.Device{Busy: 1 * vclock.Microsecond, IRQ: 5}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096,
		MMIOCost: 1 * vclock.Microsecond}
	dev.Host = e.HostFor(b)
	e.Attach(b)
	completed := false
	e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		env.ComputeFor(10 * vclock.Microsecond) // IRQ fires while running
		env.WaitIRQ(5)                          // must consume the latch
		completed = true
	}})
	if !completed {
		t.Fatal("latched IRQ lost")
	}
}
