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
// The executor is a work-stealing scheduler: jobs are block-partitioned
// across per-worker deques; a worker drains its own deque from the front
// (preserving enumeration locality) and, when empty, steals the back half
// of the fullest victim's deque. Stealing keeps workers busy under the
// skewed job costs typical of sweeps (a gem5+RTL run is orders of
// magnitude slower than a NEX+DSim run of the same benchmark) without any
// shared run queue to contend on. Deques are mutex-protected: each job is
// an entire simulation run (micro- to milliseconds at minimum), so queue
// operations are nowhere near the critical path.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
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

// deque is one worker's job queue, holding indices into the job slice.
// The owner pops from the front; thieves take the back half.
type deque struct {
	mu   sync.Mutex
	jobs []int
}

// popFront takes the owner's next job, or -1 when empty.
func (d *deque) popFront() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return -1
	}
	j := d.jobs[0]
	d.jobs = d.jobs[1:]
	return j
}

// stealBack removes and returns the back half of the deque (at least one
// job), or nil when empty.
func (d *deque) stealBack() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.jobs)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	stolen := make([]int, take)
	copy(stolen, d.jobs[n-take:])
	d.jobs = d.jobs[:n-take]
	return stolen
}

// size reports the current queue length (victim selection).
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.jobs)
}

// pushFront returns stolen jobs to the front of a worker's own deque.
func (d *deque) pushFront(jobs []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.jobs = append(jobs, d.jobs...)
}

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

	// Block-partition job indices across worker deques so each worker
	// starts on a contiguous slice of the enumeration.
	deques := make([]*deque, w)
	for i := range deques {
		deques[i] = &deque{}
	}
	for i := 0; i < n; i++ {
		d := deques[i*w/n]
		d.jobs = append(d.jobs, i)
	}

	var (
		wg    sync.WaitGroup
		panMu sync.Mutex
		pan   any
	)
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(self int) {
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
			own := deques[self]
			for {
				i := own.popFront()
				if i < 0 {
					// Own deque empty: steal the back half of the
					// fullest victim's deque.
					victim := -1
					best := 0
					for vi, d := range deques {
						if vi == self {
							continue
						}
						if s := d.size(); s > best {
							best, victim = s, vi
						}
					}
					if victim < 0 {
						return
					}
					stolen := deques[victim].stealBack()
					if len(stolen) == 0 {
						continue // lost the race; rescan victims
					}
					own.pushFront(stolen)
					continue
				}
				fn(i)
			}
		}(wi)
	}
	wg.Wait()
	if pan != nil {
		panic(fmt.Sprintf("sweep: job panicked: %v", pan))
	}
}
