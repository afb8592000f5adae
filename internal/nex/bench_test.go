package nex

import (
	"testing"

	"nexsim/internal/app"
	"nexsim/internal/isa"
	"nexsim/internal/vclock"
)

// benchProgram builds a many-thread program exercising the epoch loop's
// hot paths: the per-epoch scans of every thread (minWake, runnableAt),
// sleeps that spread the wake times, and mutex park/unpark pairs.
func benchProgram(threads, iters int) app.Program {
	return app.Program{
		Main: func(e app.Env) {
			var wg app.WaitGroup
			var mu app.Mutex
			wg.Add(threads)
			for t := 0; t < threads; t++ {
				e.Spawn("worker", func(e app.Env) {
					for i := 0; i < iters; i++ {
						e.Compute(isa.Work{
							Instr:     3000,
							IPCNative: 1,
							NativeDur: 800 * vclock.Nanosecond,
						})
						if i%8 == 0 {
							mu.Lock(e)
							e.ComputeFor(50 * vclock.Nanosecond)
							mu.Unlock(e)
						}
						if i%16 == 0 {
							e.Sleep(2 * vclock.Microsecond)
						}
					}
					wg.Done(e)
				})
			}
			wg.Wait(e)
		},
	}
}

// benchEpochLoop runs one engine to completion per iteration.
func benchEpochLoop(b *testing.B, threads int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := New(Config{VirtualCores: 16, Seed: 42})
		r := eng.Run(benchProgram(threads, 64))
		if r <= 0 {
			b.Fatal("no simulated time")
		}
	}
}

// The largest catalog run has 17 threads (npb-*.16 plus main); the 64-
// and 256-thread cases show the cost of the per-epoch scans off the
// catalog.
func BenchmarkEpochLoop_8Threads(b *testing.B)   { benchEpochLoop(b, 8) }
func BenchmarkEpochLoop_17Threads(b *testing.B)  { benchEpochLoop(b, 17) }
func BenchmarkEpochLoop_64Threads(b *testing.B)  { benchEpochLoop(b, 64) }
func BenchmarkEpochLoop_256Threads(b *testing.B) { benchEpochLoop(b, 256) }

// BenchmarkEpochLoop_MostlyParked measures the scheduler with a large
// population of long-parked threads: the per-epoch scans visit all 513
// threads while one runs, so its cost tracks the total thread count. No
// catalog run has this shape; it shows the cost off the catalog.
func BenchmarkEpochLoop_MostlyParked(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := New(Config{VirtualCores: 16, Seed: 42})
		prog := app.Program{
			Main: func(e app.Env) {
				const parked = 512
				var wg app.WaitGroup
				wg.Add(parked)
				var q app.Queue
				for t := 0; t < parked; t++ {
					e.Spawn("sleeper", func(e app.Env) {
						// Block until the main thread finishes its compute.
						if _, ok := q.Pop(e); !ok {
							// closed: nothing to do
						}
						wg.Done(e)
					})
				}
				// One busy thread drives thousands of epochs while the
				// 512 sleepers sit parked.
				for i := 0; i < 2000; i++ {
					e.ComputeFor(900 * vclock.Nanosecond)
				}
				q.Close(e)
				wg.Wait(e)
			},
		}
		if r := eng.Run(prog); r <= 0 {
			b.Fatal("no simulated time")
		}
	}
}
