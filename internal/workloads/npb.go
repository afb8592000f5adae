package workloads

import (
	"fmt"

	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/coro"
	"nexsim/internal/isa"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// npbKernel parameterizes an OpenMP-style NPB kernel skeleton: per-
// iteration compute segments (with per-thread skew, as real kernels
// have) separated by barriers — the communication structure that drives
// NEX's epoch-duration accuracy trade-off (Table 4) and the SP/LU
// divergence under the complementary scheduler (§A.1).
type npbKernel struct {
	name     string
	seg      vclock.Duration // mean compute segment per iteration
	iters    int
	barriers int     // barriers per iteration (0 = embarrassingly parallel)
	skew     float64 // relative per-thread/iteration duration spread
	memHeavy bool    // memory-bound instruction mix
	pipeline bool    // LU-style wavefront: neighbour handoff each iter
}

// npbKernels are class-W-scaled skeletons of the eight kernels.
var npbKernels = []npbKernel{
	{name: "ep", seg: 200 * vclock.Microsecond, iters: 20, barriers: 0, skew: 0.02},
	{name: "cg", seg: 15700 * vclock.Nanosecond, iters: 200, barriers: 1, skew: 0.10, memHeavy: true},
	{name: "mg", seg: 13900 * vclock.Nanosecond, iters: 150, barriers: 1, skew: 0.15, memHeavy: true},
	{name: "ft", seg: 29300 * vclock.Nanosecond, iters: 60, barriers: 2, skew: 0.08, memHeavy: true},
	{name: "is", seg: 21100 * vclock.Nanosecond, iters: 80, barriers: 2, skew: 0.12},
	{name: "bt", seg: 24700 * vclock.Nanosecond, iters: 100, barriers: 1, skew: 0.06},
	{name: "sp", seg: 11300 * vclock.Nanosecond, iters: 200, barriers: 1, skew: 0.10},
	{name: "lu", seg: 14900 * vclock.Nanosecond, iters: 150, barriers: 1, skew: 0.10, pipeline: true},
}

// npbBenches returns the NPB-style kernels at the given thread count.
func npbBenches(threads int) []Bench {
	var out []Bench
	for _, k := range npbKernels {
		k := k
		out = append(out, Bench{
			Name:    fmt.Sprintf("npb-%s.%d", k.name, threads),
			Model:   core.AccelNone,
			Threads: threads,
			Build: func(ctx *core.Ctx) app.Program {
				return npbProgram(k, threads, ctx.Clock)
			},
		})
	}
	return out
}

// npbProgram builds one kernel at a thread count.
func npbProgram(k npbKernel, threads int, clk vclock.Hz) app.Program {
	return app.Program{
		Main: func(e app.Env) {
			bar := &app.Barrier{N: threads}
			var wg app.WaitGroup
			wg.Add(threads)
			workers := make([]*workerCtl, threads)
			for i := 0; i < threads; i++ {
				workers[i] = &workerCtl{}
			}
			for i := 0; i < threads; i++ {
				i := i
				e.Spawn(k.name, func(we app.Env) {
					rng := xrand.New(uint64(i)<<32 ^ 0xdb)
					mix := isa.ComputeMix
					ws := int64(256 << 10)
					ipc := 1.55
					if k.memHeavy {
						mix = isa.MemHeavyMix
						ws = 8 << 20
						ipc = 1.2
					}
					for it := 0; it < k.iters; it++ {
						d := vclock.Duration(float64(k.seg) * rng.Jitter(k.skew))
						we.Compute(isa.Segment(d, clk, mix, ws, ipc,
							uint64(i)<<40^uint64(it)))
						if k.pipeline && i > 0 {
							// LU wavefront: wait for the left neighbour's
							// iteration before proceeding.
							workers[i-1].await(we, it+1)
						}
						if k.pipeline {
							workers[i].post(we, it+1)
						}
						for b := 0; b < k.barriers; b++ {
							bar.Wait(we)
						}
					}
					wg.Done(we)
				})
			}
			wg.Wait(e)
		},
	}
}

// workerCtl is a monotone progress counter with park/unpark waiting,
// used for LU's wavefront dependencies.
type workerCtl struct {
	progress int
	waiters  []waiter
}

type waiter struct {
	th    *coro.Thread
	least int
}

func (w *workerCtl) post(e app.Env, v int) {
	if v > w.progress {
		w.progress = v
	}
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if w.progress >= wt.least {
			e.Unpark(wt.th)
		} else {
			kept = append(kept, wt)
		}
	}
	w.waiters = kept
}

func (w *workerCtl) await(e app.Env, least int) {
	for w.progress < least {
		w.waiters = append(w.waiters, waiter{th: e.Self(), least: least})
		e.Park()
	}
}
