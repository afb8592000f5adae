package hostkit

import (
	"nexsim/internal/coro"
	"nexsim/internal/vclock"
)

// Warp is one thread's time-warp state (§3.4): the engines embed it in
// their per-thread state, feed it the thread's OpWarp requests, and
// consult it when they turn a compute segment into a duration.
type Warp struct {
	Compress []float64 // stack of active CompressT factors
	JumpT    int       // JumpT nesting depth; > 0 means outside virtual time
	Slip     bool      // inside a SlipStream region
	SeedCtr  uint64    // ComputeFor's per-thread segment counter
}

// Handle applies one OpWarp request (a region entry or exit).
func (w *Warp) Handle(r coro.Request) {
	switch r.Warp {
	case coro.CompressT:
		if r.Enter {
			w.Compress = append(w.Compress, r.Factor)
		} else {
			w.Compress = w.Compress[:len(w.Compress)-1]
		}
	case coro.JumpT:
		if r.Enter {
			w.JumpT++
		} else {
			w.JumpT--
		}
	case coro.SlipStream:
		w.Slip = r.Enter
	}
}

// Scale divides a compute duration by every active CompressT factor.
func (w *Warp) Scale(d vclock.Duration) vclock.Duration {
	for _, f := range w.Compress {
		d = vclock.Duration(float64(d) / f)
	}
	return d
}
