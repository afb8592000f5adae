// Package bench is simbench, the repository's standing benchmark: four
// named workloads measured from outside the engines (by timing calls
// into exported functions, by substituting one engine for another
// through core.Config, and through simserve.Config.Runner and the
// http.Handlers the bench itself puts behind listeners), per-layer
// probes, a traced run, and golden result digests. bench/README.md is
// the glossary; cmd/simbench is the command.
//
// bench/ is linted by simlint like the engines. Wall-clock reads, sleeps
// and goroutines are the point of a load generator, so they are
// funnelled through the helpers in this file, each carrying the one
// justified suppression; everything random comes from internal/xrand.
package bench

import (
	"sync"
	"time"

	"nexsim/internal/xrand"
)

// now is the bench's only wall-clock read.
func now() time.Time {
	return time.Now() //simlint:allow nondet-time measuring host wall time is the benchmark's job; never simulation state
}

// since is now() minus t, in float milliseconds.
func since(t time.Time) float64 { return ms(now().Sub(t)) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pause is the bench's only sleep (the open-loop generator's coarse
// wait before it spins to a due time).
func pause(d time.Duration) {
	time.Sleep(d) //simlint:allow nondet-time open-loop arrival schedule is wall-clock by definition
}

// spawn is the bench's only go statement: load-generator clients and
// the listeners' serve loops. Callers wait on wg before reading results.
func spawn(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() { //simlint:allow stray-goroutine client connections and listeners are concurrent by nature; engines stay single-threaded
		defer wg.Done()
		fn()
	}()
}

// stream derives the named random stream of one workload seed; every
// generated input comes from one of these.
func stream(seed uint64, name string) *xrand.Stream {
	return xrand.New(seed).Derive(name)
}
