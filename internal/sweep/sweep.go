// Package sweep runs independent simulation jobs in parallel.
//
// The paper's headline claim is wall-clock speed, and its evaluation
// workflows (§6.4 design sweeps, Table 4 epoch sweeps) are embarrassingly
// parallel: many fully independent full-stack simulations whose results
// are rendered together at the end. Every engine in this repository is
// deliberately single-threaded and deterministic, so the only safe — and
// the most profitable — axis of parallelism is across *runs*: each job
// builds its own system (core.Build) and runs it to completion on one
// worker, and results are collected into an order-preserving slice so
// tables and figures render byte-identically to a serial execution.
//
// The executor is greedy self-scheduling: every worker takes the next
// job index from one shared atomic counter until the jobs run out. Each
// job is an entire simulation run (micro- to milliseconds at minimum),
// so one counter increment per job is nowhere near the critical path,
// and a worker that finishes early simply takes more jobs — which
// balances the skewed job costs typical of sweeps (a gem5+RTL run is
// orders of magnitude slower than a NEX+DSim run of the same benchmark).
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor fans independent jobs across a fixed set of workers.
type Executor struct {
	workers int
}

// New returns an executor with the given worker count; n <= 0 selects
// runtime.GOMAXPROCS(0). A single-worker executor runs jobs inline in
// enumeration order, exactly like the pre-existing serial harness.
func New(n int) *Executor {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: n}
}

// Workers returns the executor's worker count.
func (x *Executor) Workers() int { return x.workers }

// Map executes every job and returns their results in job order. Each
// job runs exactly once on exactly one worker; result i is job i's return
// value regardless of which worker ran it or when, so rendering code
// observes the same sequence a serial loop would produce. A panic in any
// job is re-raised on the caller's goroutine after all workers stop.
func Map[T any](x *Executor, jobs []func() T) []T {
	results := make([]T, len(jobs))
	Run(x, len(jobs), func(i int) { results[i] = jobs[i]() })
	return results
}

// Run executes fn(0..n-1), fanning calls across the executor's workers.
// It is the untyped core of Map for callers that write results into
// their own structures.
func Run(x *Executor, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if x == nil || x.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := x.workers
	if w > n {
		w = n
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		panMu sync.Mutex
		pan   any
	)
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panMu.Lock()
					if pan == nil {
						pan = r
					}
					panMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(fmt.Sprintf("sweep: job panicked: %v", pan))
	}
}
