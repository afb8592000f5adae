package bench

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexsim/internal/xrand"
)

// Request classes of the serving mix.
const (
	classHot  = iota // one of the 32 pre-submitted keys: a cache hit
	classWarm        // Zipf over 2048 keys against 3×256 cache entries
	classCold        // a never-seen spec: always a miss
	numClasses
)

// Mix shares, in percent.
const (
	hotPct  = 70
	warmPct = 15
)

// Sizes of the key universes.
const (
	hotKeys  = 32
	warmKeys = 2048
)

// Arrival is one request of a generated traffic schedule.
type Arrival struct {
	Due   time.Duration // offset from the phase start at which it is due
	Class int
	Key   int // index into the class's key universe (cold: a counter)
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *xrand.Stream) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// mixer draws the class and key of successive requests; cold keys count
// up from coldNext so no cold spec is ever seen twice in a process.
type mixer struct {
	rng      *xrand.Stream
	warm     *zipf
	coldNext int
}

func newMixer(seed uint64, phase string, coldStart int) *mixer {
	return &mixer{rng: stream(seed, ServeMix+"/"+phase), warm: newZipf(warmKeys), coldNext: coldStart}
}

func (m *mixer) next() (class, key int) {
	switch p := m.rng.Intn(100); {
	case p < hotPct:
		return classHot, m.rng.Intn(hotKeys)
	case p < hotPct+warmPct:
		return classWarm, m.warm.draw(m.rng)
	default:
		m.coldNext++
		return classCold, m.coldNext - 1
	}
}

// OpenSchedule generates the arrivals of one open-loop phase: a fixed
// rate (evenly spaced due times) for a duration, classes and keys drawn
// from the workload seed. It is a pure function of its arguments.
func OpenSchedule(seed uint64, phase string, ratePerSec float64, d time.Duration, coldStart int) []Arrival {
	n := int(math.Round(ratePerSec * d.Seconds()))
	m := newMixer(seed, phase, coldStart)
	out := make([]Arrival, n)
	gap := float64(time.Second) / ratePerSec
	for i := range out {
		class, key := m.next()
		out[i] = Arrival{Due: time.Duration(float64(i) * gap), Class: class, Key: key}
	}
	return out
}

// ClosedSequence generates n requests for a closed loop (no due times).
func ClosedSequence(seed uint64, phase string, n, coldStart int) []Arrival {
	m := newMixer(seed, phase, coldStart)
	out := make([]Arrival, n)
	for i := range out {
		out[i].Class, out[i].Key = m.next()
	}
	return out
}

// The generator's wait has three stages. A plain sleep wakes about a
// millisecond late on the reference box, which is the whole latency of a
// cache hit, so the sleep stops spinWindow early; the yield-spin lets
// the servers (same process, same two cores) run but comes back tens of
// microseconds late when they are busy, so the last busyWindow is a pure
// busy-wait.
const (
	spinWindow = 1000 * time.Microsecond
	busyWindow = 50 * time.Microsecond
)

// waitUntil blocks until due. It reports whether the caller arrived
// early (so the lateness it then measures is the generator's own, not
// queueing behind a busy client).
func waitUntil(due time.Time) (early bool) {
	d := due.Sub(now())
	if d <= 0 {
		return false
	}
	if d > spinWindow {
		pause(d - spinWindow)
	}
	for due.Sub(now()) > busyWindow {
		runtime.Gosched()
	}
	for now().Before(due) {
	}
	return true
}

// OpenLoop plays a schedule against send with the given number of
// client connections. Request i is started at its due time or as soon
// after it as a client is free, and its latency is charged from the due
// time, so a stall is paid by every request that was due during it
// (no coordinated omission). It returns each request's latency and the
// generator's own lateness for the requests a client was waiting for
// (NaN where the client arrived late because it was still busy).
func OpenLoop(due []time.Duration, clients int, send func(i int)) (latMS, lateMS []float64) {
	latMS = make([]float64, len(due))
	lateMS = make([]float64, len(due))
	start := now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		spawn(&wg, func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				lateMS[i] = math.NaN()
				if waitUntil(dueAt) {
					lateMS[i] = ms(now().Sub(dueAt))
				}
				send(i)
				latMS[i] = ms(now().Sub(dueAt))
			}
		})
	}
	wg.Wait()
	return latMS, lateMS
}

// ClosedLoop has each client send its next request as soon as its
// previous one completes, until the deadline or until n requests have
// been sent. It returns each sent request's latency and the wall time
// of the whole loop.
func ClosedLoop(n, clients int, d time.Duration, send func(i int)) (latMS []float64, wallMS float64) {
	lat := make([]float64, n)
	start := now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		spawn(&wg, func() {
			for now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := now()
				send(i)
				lat[i] = since(t)
			}
		})
	}
	wg.Wait()
	wallMS = since(start)
	// Every claimed index below n was sent (a client checks the deadline
	// before it claims); each client may claim one index past n.
	sent := int(next.Load())
	if sent > n {
		sent = n
	}
	return lat[:sent], wallMS
}

// finite returns the non-NaN values of xs.
func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
